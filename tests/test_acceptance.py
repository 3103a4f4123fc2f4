"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import math

import numpy as np
import pytest

from qparch import cli, distillation, estimates, pauli_frame, pulses, qec

PROFILE = qec.HardwareProfile()
CODE = qec.code_point(PROFILE, 31)
SAMPLES = 20000

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
GATE_MATRIX = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "S": np.diag([1, 1j]).astype(complex),
    "S_dagger": np.diag([1, -1j]).astype(complex),
    "X": PAULI["X"],
    "Y": PAULI["Y"],
    "Z": PAULI["Z"],
}
CNOT_01 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def check(number, description, passed):
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_1_logical_error_rate_reproduction():
    value = qec.logical_error_rate(PROFILE, 31)
    ok = abs(value - 2.6e-20) / 2.6e-20 <= 0.05
    check(1, f"error per lattice cycle at d=31 is {value:.3e} (2.6e-20 within 5%)", ok)


def test_criterion_2_factory_tables():
    expected = {
        512: (84.1, 32.1), 1024: (81.5, 57.8), 2048: (76.1, 105.1),
        4096: (65.5, 192.7), 8192: (44.1, 355.7), 16384: (1.5, 660.6),
    }
    ok = True
    for bits, (production, consumption) in expected.items():
        report = estimates.shor_estimate(
            estimates.ShorWorkload(bits=bits, machine_logical_qubits=100000), PROFILE, CODE
        )
        ok &= report.distillation_qubits == 100000 - 6 * bits
        ok &= abs(report.production_rate - production) <= 0.1
        ok &= abs(report.consumption_rate - consumption) <= 0.1
    check(2, "factory cross-sections exact, rates within 0.1 for N=512..16384", ok)


def test_criterion_3_shor_1024_end_to_end():
    report = estimates.shor_estimate(estimates.ShorWorkload(bits=1024), PROFILE, CODE)
    checks = [
        report.app_qubits == 6144,
        abs(report.distillation_qubits - 66564) / 66564 <= 1e-3,
        abs(report.total_logical_qubits - 72708) / 72708 <= 1e-3,
        abs(report.toffoli_depth - 1.68e8) / 1.68e8 <= 0.01,
        abs(report.logical_cycles - 5.21e9) / 5.21e9 <= 0.01,
        abs(report.virtual_qubits - 4.54e8) / 4.54e8 <= 0.005,
        abs(report.chip_area_cm2 - 4.54) / 4.54 <= 0.005,
        abs(report.runtime_days - 1.81) / 1.81 <= 0.02,
    ]
    check(3, f"1024-bit factoring report matches the reference column ({report.runtime_days:.3f} days)",
          all(checks))


def test_criterion_4_alanine_simulation():
    report = estimates.sim_estimate(estimates.SimWorkload(particles=61), PROFILE, CODE)
    checks = [
        abs(report.app_qubits - 6650) / 6650 <= 0.01,
        report.distillation_qubits == 15860,
        abs(report.logical_cycles - 3.94e10) / 3.94e10 <= 0.01,
        abs(report.toffoli_depth - 1.27e9) / 1.27e9 <= 0.01,
        abs(report.virtual_qubits - 1.40e8) / 1.40e8 <= 0.01,
        abs(report.runtime_days - 13.7) / 13.7 <= 0.02,
    ]
    check(4, f"61-particle simulation report matches the reference column ({report.runtime_days:.2f} days)",
          all(checks))


def test_criterion_5_throttling_behavior():
    throttles = {}
    for bits in (512, 1024, 2048, 4096, 8192):
        report = estimates.shor_estimate(
            estimates.ShorWorkload(bits=bits, machine_logical_qubits=100000), PROFILE, CODE
        )
        throttles[bits] = report.throttle_factor
    ok = (
        throttles[512] == 1.0
        and throttles[1024] == 1.0
        and throttles[2048] > 1.0
        and throttles[8192] > 1.0
        and 2.8 <= throttles[4096] <= 3.1
    )
    check(5, f"throttle 1 below 2048 bits, {throttles[4096]:.2f} at 4096 bits", ok)


def test_criterion_6_toffoli_time():
    value = distillation.toffoli_time(PROFILE)
    ok = value == pytest.approx(930e-6, rel=1e-12)
    check(6, f"Toffoli time is {value * 1e6:.0f} us (31 cycles x 30 us)", ok)


def test_criterion_7_pauli_frame_oracle_equivalence():
    letters = ("I", "X", "Y", "Z")
    phases = (1, -1, 1j, -1j)

    def letter_of(matrix, basis):
        for name, ref in basis.items():
            if any(np.allclose(matrix, p * ref, atol=1e-12) for p in phases):
                return name
        raise AssertionError("not a Pauli up to phase")

    single_basis = PAULI
    pair_basis = {a + b: np.kron(PAULI[a], PAULI[b]) for a in letters for b in letters}
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)

    def run(initial, line):
        """Run one circuit line on a frame, as ``frame exec`` does."""
        frame = pauli_frame.PauliFrame(letters=initial)
        return pauli_frame.run_circuit(frame, pauli_frame.parse_circuit([line]))

    ok = True
    for gate, matrix in GATE_MATRIX.items():
        for letter in letters:
            frame, _ = run([letter], f'{{"op":"clifford","g":"{gate}","q":0}}')
            expected = letter_of(matrix @ PAULI[letter] @ matrix.conj().T, single_basis)
            ok &= frame.letters == [expected]
    for targets, cnot in (("[0,1]", CNOT_01), ("[1,0]", swap @ CNOT_01 @ swap)):
        for a in letters:
            for b in letters:
                frame, _ = run([a, b], f'{{"op":"clifford","g":"CNOT","q":{targets}}}')
                expected = letter_of(cnot @ pair_basis[a + b] @ cnot.conj().T, pair_basis)
                ok &= "".join(frame.letters) == expected
    for letter in letters:
        for basis in ("X", "Y", "Z"):
            _, outcomes = run([letter], f'{{"op":"measure","basis":"{basis}","q":0,"raw":1}}')
            flipped = outcomes == [-1]
            anticommutes = np.allclose(
                PAULI[letter] @ PAULI[basis] + PAULI[basis] @ PAULI[letter], 0, atol=1e-12
            )
            ok &= flipped == anticommutes
    check(7, "frame conjugation and measurement flips match dense-matrix oracles exhaustively", ok)


def test_criterion_8_pulse_simulation_properties():
    larmor = PROFILE.larmor_period
    identity = np.eye(2, dtype=complex)

    # (a) noiseless composite gates are exact
    quiet = pulses.NoiseModel(t2_star=None, pulse_error=0.0, samples=4, seed=0)
    exact = all(
        pulses.process_infidelity(pulses.build_sequence(kind, 1e-9, larmor), quiet).infidelity
        < 1e-9
        for kind in ("8H", "CP", "UDD")
    )
    check(8, "(a) noiseless composite decoupling gates reach infidelity < 1e-9", exact)

    # (b) decoupling beats free evolution by 10x
    dephasing = pulses.NoiseModel(t2_star=2e-9, pulse_error=0.0, samples=SAMPLES, seed=7)
    free = pulses.process_infidelity(pulses.free_evolution(8e-9, larmor), dephasing).infidelity
    ratios = {}
    for kind in ("8H", "CP", "UDD"):
        seq = pulses.build_sequence(kind, 1e-9, larmor)
        ratios[kind] = free / pulses.process_infidelity(seq, dephasing).infidelity
    check(8, f"(b) 8H/CP/UDD beat free evolution by {min(ratios.values()):.0f}x (need 10x)",
          all(r >= 10 for r in ratios.values()))

    # (c) monotone in pulse error on the stated grid
    monotone = True
    anchors = {}
    for kind in ("8H", "CP", "UDD"):
        seq = pulses.build_sequence(kind, 1e-9, larmor)
        values = [
            pulses.process_infidelity(
                seq, pulses.NoiseModel(t2_star=2e-9, pulse_error=e, samples=SAMPLES, seed=7)
            ).infidelity
            for e in (0, 0.0025, 0.005, 0.01, 0.02)
        ]
        anchors[kind] = values[3]
        monotone &= all(b >= a for a, b in zip(values, values[1:]))
    check(8, "(c) infidelity monotone in pulse error for every sequence", monotone)

    # (d) 8H at 1% pulse error sits within one decade of 1e-3
    check(8, f"(d) 8H infidelity at 1% pulse error is {anchors['8H']:.2e} (within [1e-4, 1e-2])",
          1e-4 <= anchors["8H"] <= 1e-2)

    # (e) compensation beats the bare composite gate under identical noise
    target = np.array(
        [[0, -1j], [-1j, 0]], dtype=complex
    )  # R_X(pi)
    noisy = pulses.NoiseModel(t2_star=None, pulse_error=1e-2, samples=1, seed=0)
    bare = pulses.process_infidelity(pulses.composite_x_gate(math.pi, larmor), noisy, target)
    comp = pulses.process_infidelity(pulses.bb1_virtual_gate(math.pi, 1e-9, larmor), noisy, target)
    check(8, f"(e) compensated gate {comp.infidelity:.2e} beats bare composite {bare.infidelity:.2e}",
          comp.infidelity < bare.infidelity)


def test_criterion_9_cli_determinism(tmp_path):
    circuit = tmp_path / "circuit.jsonl"
    circuit.write_text('{"op":"pauli","p":"X","q":0}\n{"op":"measure","basis":"Z","q":0,"raw":1}\n')
    invocations = [
        ["qec", "distance", "--target-logical-error", "8.6e-19"],
        ["estimate", "shor", "--bits", "1024"],
        ["estimate", "shor", "--bits", "512,1024", "--machine-logical-qubits", "100000"],
        ["estimate", "sim", "--particles", "61"],
        ["pulse", "sweep", "--sequences", "8h,cp,udd", "--pulse-errors", "0,0.005,0.01",
         "--tau", "1e-9", "--samples", "2000", "--seed", "7", "--baseline"],
        ["frame", "exec", str(circuit)],
    ]
    ok = True
    for index, args in enumerate(invocations):
        first = tmp_path / f"first_{index}"
        second = tmp_path / f"second_{index}"
        ok &= cli.main(args + ["--output", str(first)]) == 0
        ok &= cli.main(args + ["--output", str(second)]) == 0
        ok &= first.read_bytes() == second.read_bytes()
    check(9, "every CLI invocation is byte-identical across repeated runs", ok)


def test_criterion_10_round_trips():
    distance_ok = all(
        qec.min_code_distance(PROFILE, qec.logical_error_rate(PROFILE, d)).distance == d
        for d in range(1, 62, 2)
    )
    rng = np.random.default_rng(2024)
    factory_ok = True
    for _ in range(100):
        consumption = float(rng.uniform(0.01, 700.0))
        level = int(rng.integers(1, 4))
        area = distillation.required_factory_area(consumption, level)
        factory_ok &= distillation.factory_rate(area, level) >= consumption * (1 - 1e-12)
    check(10, "distance and factory-sizing round trips hold", distance_ok and factory_ok)
