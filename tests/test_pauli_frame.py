import functools
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qparch import pauli_frame as pf

# Dense-matrix oracle, built independently of the package's lookup tables.
I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
GATE_MATRIX = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "S_dagger": np.array([[1, 0], [0, -1j]], dtype=complex),
    "X": PAULI["X"],
    "Y": PAULI["Y"],
    "Z": PAULI["Z"],
}
CNOT_01 = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
PHASES = (1, -1, 1j, -1j)
LETTERS = ("I", "X", "Y", "Z")


def letter_from_matrix(matrix):
    """Match a matrix to a Pauli letter up to global phase."""
    for letter, ref in PAULI.items():
        for phase in PHASES:
            if np.allclose(matrix, phase * ref, atol=1e-12):
                return letter
    raise AssertionError("matrix is not a phase times a Pauli")


def pair_from_matrix(matrix):
    for a in LETTERS:
        for b in LETTERS:
            ref = np.kron(PAULI[a], PAULI[b])
            for phase in PHASES:
                if np.allclose(matrix, phase * ref, atol=1e-12):
                    return a + b
    raise AssertionError("matrix is not a phase times a two-qubit Pauli")


def kron_letters(letters):
    return functools.reduce(np.kron, (PAULI[letter] for letter in letters))


@functools.lru_cache(maxsize=None)
def pauli_strings(n):
    strings = ["".join(letters) for letters in itertools.product(LETTERS, repeat=n)]
    return strings, np.array([kron_letters(string) for string in strings])


def letters_from_matrix(matrix):
    """Match a 2^n x 2^n matrix to an n-qubit Pauli string up to global phase."""
    strings, refs = pauli_strings(matrix.shape[0].bit_length() - 1)
    # Pauli strings are Hermitian and orthogonal under tr(P Q) / 2^n.
    overlaps = np.einsum("kij,ji->k", refs, matrix) / len(matrix)
    best = int(np.argmax(abs(overlaps)))
    for phase in PHASES:
        if np.allclose(matrix, phase * refs[best], atol=1e-12):
            return strings[best]
    raise AssertionError("matrix is not a phase times an n-qubit Pauli")


def embed(gate, qubits, n):
    """The 2^n x 2^n matrix of ``gate`` acting on ``qubits`` (qubit 0 is the leftmost factor)."""
    order = list(qubits) + [q for q in range(n) if q not in qubits]
    full = np.kron(gate, np.eye(2 ** (n - len(qubits)))).reshape((2,) * (2 * n))
    axes = list(np.argsort(order))
    return full.transpose(axes + [n + a for a in axes]).reshape(2 ** n, 2 ** n)


def matrices_anticommute(a, b):
    return np.allclose(a @ b + b @ a, 0, atol=1e-12)


class TestLetterAlgebra:
    def test_cayley_table_matches_matrix_products(self):
        for a in LETTERS:
            for b in LETTERS:
                frame = pf.PauliFrame(letters=[a])
                frame.fold_pauli(b, 0)
                assert frame.letters == [letter_from_matrix(PAULI[b] @ PAULI[a])]

    def test_phase_discarded_group_is_abelian_of_order_four(self):
        def product(*letters):
            frame = pf.PauliFrame(1)
            for letter in letters:
                frame.fold_pauli(letter, 0)
            return frame.letters[0]

        for a in LETTERS:
            assert product(a, "I") == a
            assert product(a, a) == "I"
            for b in LETTERS:
                assert product(a, b) == product(b, a)
                assert product(a, b) in LETTERS

    def test_anticommutation_matches_matrix_oracle(self):
        for a in LETTERS:
            for b in ("X", "Y", "Z"):
                flipped = pf.PauliFrame(letters=[a]).interpret_measurement(b, 0, +1) == -1
                assert flipped == matrices_anticommute(PAULI[a], PAULI[b])
        with pytest.raises(ValueError, match="basis"):
            pf.PauliFrame(1).interpret_measurement("I", 0, +1)

    def test_invalid_letters_rejected(self):
        for bad in ("Q", "x", "", None, "XY"):
            with pytest.raises(ValueError, match="invalid Pauli letter"):
                pf.PauliFrame(letters=["I", bad])
            with pytest.raises(ValueError, match="invalid Pauli letter"):
                pf.PauliFrame(1).fold_pauli(bad, 0)


class TestFoldPauli:
    def test_identity_frame_takes_letter(self):
        frame = pf.PauliFrame(1)
        frame.fold_pauli("X", 0)
        assert frame.letters == ["X"]

    def test_involution(self):
        frame = pf.PauliFrame(letters=["X"])
        frame.fold_pauli("X", 0)
        assert frame.letters == ["I"]

    def test_x_then_z_gives_y(self):
        frame = pf.PauliFrame(letters=["X"])
        frame.fold_pauli("Z", 0)
        assert frame.letters == ["Y"]
        assert letter_from_matrix(PAULI["Z"] @ PAULI["X"]) == "Y"

    def test_out_of_range_qubit(self):
        with pytest.raises(IndexError):
            pf.PauliFrame(1).fold_pauli("X", 1)


class TestConjugation:
    @pytest.mark.parametrize("gate", ("H", "S", "S_dagger", "X", "Y", "Z"))
    @pytest.mark.parametrize("letter", LETTERS)
    def test_single_qubit_exhaustive_vs_dense_oracle(self, gate, letter):
        frame = pf.PauliFrame(letters=[letter])
        frame.conjugate(pf.CliffordGate(gate, (0,)))
        u = GATE_MATRIX[gate]
        expected = letter_from_matrix(u @ PAULI[letter] @ u.conj().T)
        assert frame.letters == [expected]

    @pytest.mark.parametrize("targets", [(0, 1), (1, 0)])
    def test_cnot_exhaustive_both_orderings(self, targets):
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        cnot = CNOT_01 if targets == (0, 1) else swap @ CNOT_01 @ swap
        for a in LETTERS:
            for b in LETTERS:
                frame = pf.PauliFrame(letters=[a, b])
                frame.conjugate(pf.CliffordGate("CNOT", targets))
                expected = pair_from_matrix(cnot @ np.kron(PAULI[a], PAULI[b]) @ cnot.conj().T)
                assert "".join(frame.letters) == expected

    def test_examples(self):
        frame = pf.PauliFrame(letters=["X"])
        frame.conjugate(pf.CliffordGate("H", (0,)))
        assert frame.letters == ["Z"]

        frame = pf.PauliFrame(letters=["X", "I"])
        frame.conjugate(pf.CliffordGate("CNOT", (0, 1)))
        assert frame.letters == ["X", "X"]

        frame = pf.PauliFrame(letters=["Z"])
        frame.conjugate(pf.CliffordGate("S", (0,)))
        assert frame.letters == ["Z"]

    def test_group_action_inverse_round_trip(self):
        inverses = {
            "H": "H", "S": "S_dagger", "S_dagger": "S",
            "X": "X", "Y": "Y", "Z": "Z",
        }
        for letter in LETTERS:
            for gate, inverse in inverses.items():
                frame = pf.PauliFrame(letters=[letter])
                frame.conjugate(pf.CliffordGate(gate, (0,)))
                frame.conjugate(pf.CliffordGate(inverse, (0,)))
                assert frame.letters == [letter]
        for a in LETTERS:
            for b in LETTERS:
                frame = pf.PauliFrame(letters=[a, b])
                frame.conjugate(pf.CliffordGate("CNOT", (0, 1)))
                frame.conjugate(pf.CliffordGate("CNOT", (0, 1)))
                assert frame.letters == [a, b]

    def test_commutation_preserved_under_conjugation(self):
        def conjugated(gate, letter):
            frame = pf.PauliFrame(letters=[letter])
            frame.conjugate(pf.CliffordGate(gate, (0,)))
            return frame

        for gate in ("H", "S", "S_dagger", "X", "Y", "Z"):
            assert conjugated(gate, "I").letters == ["I"]
            for a in LETTERS:
                for b in ("X", "Y", "Z"):
                    basis = conjugated(gate, b).letters[0]
                    flipped = conjugated(gate, a).interpret_measurement(basis, 0, +1) == -1
                    assert flipped == matrices_anticommute(PAULI[a], PAULI[b])

    def test_untouched_qubits_stay_put(self):
        frame = pf.PauliFrame(letters=["X", "Y", "Z"])
        frame.conjugate(pf.CliffordGate("H", (1,)))
        assert frame.letters[0] == "X" and frame.letters[2] == "Z"

    def test_measurement_gates_rejected(self):
        # Measurement is a MeasureInstruction, never a Clifford gate.
        for kind in ("MX", "MZ"):
            with pytest.raises(ValueError, match="unknown Clifford gate kind"):
                pf.CliffordGate(kind, (0,))
            with pytest.raises(pf.CircuitParseError, match="line 1"):
                pf.parse_circuit([f'{{"op":"clifford","g":"{kind}","q":0}}'])

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            pf.CliffordGate("CNOT", (0, 0))
        with pytest.raises(ValueError):
            pf.CliffordGate("H", (0, 1))
        with pytest.raises(ValueError):
            pf.CliffordGate("T", (0,))


class TestInterpretMeasurement:
    def test_fig_example_z_frame_x_basis_negates(self):
        frame = pf.PauliFrame(letters=["Z"])
        assert frame.interpret_measurement("X", 0, +1) == -1

    def test_identity_frame_passthrough(self):
        frame = pf.PauliFrame(letters=["I"])
        assert frame.interpret_measurement("Z", 0, +1) == +1

    def test_commuting_frame_keeps_outcome(self):
        frame = pf.PauliFrame(letters=["X"])
        assert frame.interpret_measurement("X", 0, -1) == -1

    def test_exhaustive_flip_iff_anticommutes(self):
        for letter in LETTERS:
            for basis in ("X", "Y", "Z"):
                frame = pf.PauliFrame(letters=[letter])
                got = frame.interpret_measurement(basis, 0, +1)
                flips = matrices_anticommute(PAULI[letter], PAULI[basis])
                assert got == (-1 if flips else +1)
                assert frame.letters == ["I"]

    def test_bad_outcome_rejected(self):
        with pytest.raises(ValueError):
            pf.PauliFrame(1).interpret_measurement("Z", 0, 0)


class TestFrameTransformGate:
    T_GATE = np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex)

    def test_identity_frame_returns_gate(self):
        frame = pf.PauliFrame(letters=["I"])
        assert np.allclose(frame.transform_gate(self.T_GATE, [0]), self.T_GATE)

    def test_x_frame_maps_t_to_phase_times_t_dagger(self):
        frame = pf.PauliFrame(letters=["X"])
        got = frame.transform_gate(self.T_GATE, [0])
        assert np.allclose(got, PAULI["X"] @ self.T_GATE @ PAULI["X"])
        assert np.allclose(got, np.exp(1j * np.pi / 4) * self.T_GATE.conj().T)

    def test_z_frame_commutes_with_diagonal_gate(self):
        frame = pf.PauliFrame(letters=["Z"])
        assert np.allclose(frame.transform_gate(self.T_GATE, [0]), self.T_GATE)

    def test_two_qubit_transform_matches_kron_oracle(self):
        controlled_t = np.diag([1, 1, 1, np.exp(1j * np.pi / 4)]).astype(complex)
        frame = pf.PauliFrame(letters=["X", "Z", "Y"])
        got = frame.transform_gate(controlled_t, [0, 2])
        op = np.kron(PAULI["X"], PAULI["Y"])
        assert np.allclose(got, op @ controlled_t @ op.conj().T)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pf.PauliFrame(letters=["X"]).transform_gate(np.eye(4), [0])


class TestRunCircuit:
    def test_empty_circuit(self):
        frame = pf.PauliFrame(3)
        final, outcomes = pf.run_circuit(frame, [])
        assert outcomes == []
        assert final.letters == ["I", "I", "I"]

    def test_pauli_then_measure(self):
        circuit = [
            pf.PauliInstruction("X", 0),
            pf.MeasureInstruction("Z", 0, raw=+1),
        ]
        _, outcomes = pf.run_circuit(pf.PauliFrame(1), circuit)
        assert outcomes == [-1]

    def test_hadamard_moves_frame_out_of_the_way(self):
        circuit = [
            pf.PauliInstruction("X", 0),
            pf.CliffordInstruction(pf.CliffordGate("H", (0,))),
            pf.MeasureInstruction("Z", 0, raw=+1),
        ]
        _, outcomes = pf.run_circuit(pf.PauliFrame(1), circuit)
        assert outcomes == [+1]

    def test_input_frame_not_mutated(self):
        frame = pf.PauliFrame(1)
        pf.run_circuit(frame, [pf.PauliInstruction("X", 0)])
        assert frame.letters == ["I"]

    def test_outcome_stream(self):
        circuit = [
            pf.PauliInstruction("X", 0),
            pf.MeasureInstruction("Z", 0),
            pf.MeasureInstruction("Z", 0),
        ]
        _, outcomes = pf.run_circuit(pf.PauliFrame(1), circuit, raw_outcomes=[+1, +1])
        assert outcomes == [-1, +1]

    def test_stream_underrun_and_overrun(self):
        circuit = [pf.MeasureInstruction("Z", 0)]
        with pytest.raises(ValueError, match="underrun"):
            pf.run_circuit(pf.PauliFrame(1), circuit, raw_outcomes=[])
        with pytest.raises(ValueError, match="overrun"):
            pf.run_circuit(pf.PauliFrame(1), circuit, raw_outcomes=[+1, -1])


class TestCircuitParsing:
    def test_parse_documented_format(self):
        lines = [
            '{"op":"pauli","p":"X","q":0}',
            '{"op":"clifford","g":"CNOT","q":[0,1]}',
            '{"op":"measure","basis":"Z","q":0,"raw":1}',
        ]
        circuit = pf.parse_circuit(lines)
        assert circuit[0] == pf.PauliInstruction("X", 0)
        assert circuit[1].gate == pf.CliffordGate("CNOT", (0, 1))
        assert circuit[2] == pf.MeasureInstruction("Z", 0, raw=1)
        assert pf.circuit_qubit_count(circuit) == 2

    def test_invalid_json_reports_line_number(self):
        with pytest.raises(pf.CircuitParseError, match="line 2"):
            pf.parse_circuit(['{"op":"pauli","p":"X","q":0}', "{nope"])

    def test_unknown_op_reports_line_number(self):
        with pytest.raises(pf.CircuitParseError, match="line 1"):
            pf.parse_circuit(['{"op":"reset","q":0}'])

    def test_bad_raw_outcome(self):
        with pytest.raises(pf.CircuitParseError):
            pf.parse_circuit(['{"op":"measure","basis":"Z","q":0,"raw":2}'])

    def test_load_circuit_round_trip(self, tmp_path):
        path = tmp_path / "circuit.jsonl"
        path.write_text(
            "\n".join(
                [
                    json.dumps({"op": "pauli", "p": "X", "q": 0}),
                    json.dumps({"op": "measure", "basis": "Z", "q": 0, "raw": 1}),
                ]
            )
        )
        circuit = pf.load_circuit(path)
        _, outcomes = pf.run_circuit(pf.PauliFrame(1), circuit)
        assert outcomes == [-1]


def dense_run(letters, circuit):
    """Run a circuit on a dense 2^n x 2^n frame operator, the oracle for run_circuit."""
    n = len(letters)
    frame = kron_letters(letters)
    outcomes = []
    for instr in circuit:
        if isinstance(instr, pf.PauliInstruction):
            frame = embed(PAULI[instr.pauli], [instr.qubit], n) @ frame
        elif isinstance(instr, pf.CliffordInstruction):
            gate = instr.gate
            u = CNOT_01 if gate.kind == "CNOT" else GATE_MATRIX[gate.kind]
            u = embed(u, gate.targets, n)
            frame = u @ frame @ u.conj().T
        else:
            basis = embed(PAULI[instr.basis], [instr.qubit], n)
            flips = matrices_anticommute(frame, basis)
            outcomes.append(-instr.raw if flips else instr.raw)
            reset = list(letters_from_matrix(frame))
            reset[instr.qubit] = "I"
            frame = kron_letters(reset)
    return letters_from_matrix(frame), outcomes


def circuits_on(n):
    """Initial frame letters and a random circuit on n qubits."""
    qubit = st.integers(0, n - 1)
    instructions = [
        st.builds(pf.PauliInstruction, st.sampled_from(LETTERS), qubit),
        st.builds(
            lambda kind, q: pf.CliffordInstruction(pf.CliffordGate(kind, (q,))),
            st.sampled_from(tuple(GATE_MATRIX)), qubit,
        ),
        st.builds(pf.MeasureInstruction, st.sampled_from("XYZ"), qubit, st.sampled_from((1, -1))),
    ]
    if n > 1:
        instructions.append(st.permutations(range(n)).map(
            lambda order: pf.CliffordInstruction(pf.CliffordGate("CNOT", tuple(order[:2])))
        ))
    letters = st.lists(st.sampled_from(LETTERS), min_size=n, max_size=n)
    return st.tuples(letters, st.lists(st.one_of(instructions), max_size=24))


@settings(max_examples=200, deadline=None)
@given(st.one_of(circuits_on(1), circuits_on(2), circuits_on(3)))
def test_run_circuit_matches_dense_oracle(case):
    letters, circuit = case
    final, outcomes = pf.run_circuit(pf.PauliFrame(letters=letters), circuit)
    expected_letters, expected_outcomes = dense_run(letters, circuit)
    assert outcomes == expected_outcomes
    assert "".join(final.letters) == expected_letters
