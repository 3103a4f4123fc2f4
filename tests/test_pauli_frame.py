import contextlib
import functools
import importlib.util
import io
import itertools
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qparch import cli
from qparch import pauli_frame as pf

ROOT = Path(__file__).resolve().parents[1]

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


def pauli_line(p, q=0):
    return compact({"op": "pauli", "p": p, "q": q})


def gate_line(g, *targets):
    targets = list(targets) if len(targets) > 1 else targets[0]
    return compact({"op": "clifford", "g": g, "q": targets})


def measure_line(basis, q=0, raw=1):
    return compact({"op": "measure", "basis": basis, "q": q, "raw": raw})


def run(letters, *lines):
    """Run circuit lines on a frame of the given letters; return its final letters and outcomes."""
    final, outcomes = pf.run_circuit(pf.PauliFrame(letters=letters), pf.parse_circuit(lines))
    return final.letters, outcomes


class TestLetterAlgebra:
    def test_cayley_table_matches_matrix_products(self):
        for a in LETTERS:
            for b in LETTERS:
                assert run([a], pauli_line(b))[0] == [letter_from_matrix(PAULI[b] @ PAULI[a])]

    def test_phase_discarded_group_is_abelian_of_order_four(self):
        def product(*letters):
            return run(["I"], *map(pauli_line, letters))[0][0]

        for a in LETTERS:
            assert product(a, "I") == a
            assert product(a, a) == "I"
            for b in LETTERS:
                assert product(a, b) == product(b, a)
                assert product(a, b) in LETTERS

    def test_anticommutation_matches_matrix_oracle(self):
        for a in LETTERS:
            for b in ("X", "Y", "Z"):
                flipped = run([a], measure_line(b))[1] == [-1]
                assert flipped == matrices_anticommute(PAULI[a], PAULI[b])
        with pytest.raises(pf.CircuitParseError, match="basis"):
            pf.parse_circuit([measure_line("I")])

    def test_invalid_letters_rejected(self):
        for bad in ("Q", "x", "", None, "XY"):
            with pytest.raises(ValueError, match=f"^invalid Pauli {bad!r}$"):
                pf.PauliFrame(letters=["I", bad])
            with pytest.raises(pf.CircuitParseError, match=f"^line 1: invalid Pauli {bad!r}$"):
                pf.parse_circuit([pauli_line(bad)])


class TestFoldPauli:
    def test_identity_frame_takes_letter(self):
        assert run(["I"], pauli_line("X"))[0] == ["X"]

    def test_involution(self):
        assert run(["X"], pauli_line("X"))[0] == ["I"]

    def test_x_then_z_gives_y(self):
        assert run(["X"], pauli_line("Z"))[0] == ["Y"]
        assert letter_from_matrix(PAULI["Z"] @ PAULI["X"]) == "Y"

    def test_out_of_range_qubit(self):
        with pytest.raises(ValueError, match="the circuit uses 2 qubits, more than the 1-qubit frame"):
            run(["I"], pauli_line("X", 1))


class TestConjugation:
    @pytest.mark.parametrize("gate", ("H", "S", "S_dagger", "X", "Y", "Z"))
    @pytest.mark.parametrize("letter", LETTERS)
    def test_single_qubit_exhaustive_vs_dense_oracle(self, gate, letter):
        u = GATE_MATRIX[gate]
        expected = letter_from_matrix(u @ PAULI[letter] @ u.conj().T)
        assert run([letter], gate_line(gate, 0))[0] == [expected]

    @pytest.mark.parametrize("targets", [(0, 1), (1, 0)])
    def test_cnot_exhaustive_both_orderings(self, targets):
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        cnot = CNOT_01 if targets == (0, 1) else swap @ CNOT_01 @ swap
        for a in LETTERS:
            for b in LETTERS:
                letters, _ = run([a, b], gate_line("CNOT", *targets))
                expected = pair_from_matrix(cnot @ np.kron(PAULI[a], PAULI[b]) @ cnot.conj().T)
                assert "".join(letters) == expected

    def test_examples(self):
        assert run(["X"], gate_line("H", 0))[0] == ["Z"]
        assert run(["X", "I"], gate_line("CNOT", 0, 1))[0] == ["X", "X"]
        assert run(["Z"], gate_line("S", 0))[0] == ["Z"]

    def test_group_action_inverse_round_trip(self):
        inverses = {
            "H": "H", "S": "S_dagger", "S_dagger": "S",
            "X": "X", "Y": "Y", "Z": "Z",
        }
        for letter in LETTERS:
            for gate, inverse in inverses.items():
                assert run([letter], gate_line(gate, 0), gate_line(inverse, 0))[0] == [letter]
        cnot = gate_line("CNOT", 0, 1)
        for a in LETTERS:
            for b in LETTERS:
                assert run([a, b], cnot, cnot)[0] == [a, b]

    def test_commutation_preserved_under_conjugation(self):
        for gate in ("H", "S", "S_dagger", "X", "Y", "Z"):
            assert run(["I"], gate_line(gate, 0))[0] == ["I"]
            for a in LETTERS:
                for b in ("X", "Y", "Z"):
                    [basis], _ = run([b], gate_line(gate, 0))
                    _, outcomes = run([a], gate_line(gate, 0), measure_line(basis))
                    assert (outcomes == [-1]) == matrices_anticommute(PAULI[a], PAULI[b])

    def test_untouched_qubits_stay_put(self):
        letters, _ = run(["X", "Y", "Z"], gate_line("H", 1))
        assert letters[0] == "X" and letters[2] == "Z"

    def test_measurement_gates_rejected(self):
        # Measurement is the measure op, never a Clifford gate.
        for kind in ("MX", "MZ"):
            with pytest.raises(pf.CircuitParseError, match="^line 1: unknown Clifford gate kind"):
                pf.parse_circuit([gate_line(kind, 0)])

    def test_gate_validation(self):
        for line, message in ((gate_line("CNOT", 0, 0), "CNOT control and target must be distinct"),
                              (gate_line("H", 0, 1), "H takes exactly one target"),
                              (gate_line("T", 0), "unknown Clifford gate kind: 'T'")):
            with pytest.raises(pf.CircuitParseError, match=f"^line 1: {message}$"):
                pf.parse_circuit([line])


class TestInterpretMeasurement:
    def test_fig_example_z_frame_x_basis_negates(self):
        assert run(["Z"], measure_line("X", raw=+1))[1] == [-1]

    def test_identity_frame_passthrough(self):
        assert run(["I"], measure_line("Z", raw=+1))[1] == [+1]

    def test_commuting_frame_keeps_outcome(self):
        assert run(["X"], measure_line("X", raw=-1))[1] == [-1]

    def test_exhaustive_flip_iff_anticommutes(self):
        for letter in LETTERS:
            for basis in ("X", "Y", "Z"):
                letters, outcomes = run([letter], measure_line(basis, raw=+1))
                flips = matrices_anticommute(PAULI[letter], PAULI[basis])
                assert outcomes == [-1 if flips else +1]
                assert letters == ["I"]

    def test_bad_outcome_rejected(self):
        # A null outcome is a missing one: see test_missing_raw_names_its_line.
        for raw in (0, 2, True, 1.0):
            message = f"^line 1: raw outcome must be the integer \\+1 or -1, got {raw!r}$"
            with pytest.raises(pf.CircuitParseError, match=message):
                pf.parse_circuit([measure_line("Z", raw=raw)])


class TestRunCircuit:
    def test_empty_circuit(self):
        frame = pf.PauliFrame(3)
        final, outcomes = pf.run_circuit(frame, pf.parse_circuit([]))
        assert outcomes == []
        assert final.letters == ["I", "I", "I"]

    def test_pauli_then_measure(self):
        circuit = pf.parse_circuit([
            '{"op":"pauli","p":"X","q":0}',
            '{"op":"measure","basis":"Z","q":0,"raw":1}',
        ])
        _, outcomes = pf.run_circuit(pf.PauliFrame(1), circuit)
        assert outcomes == [-1]

    def test_hadamard_moves_frame_out_of_the_way(self):
        circuit = pf.parse_circuit([
            '{"op":"pauli","p":"X","q":0}',
            '{"op":"clifford","g":"H","q":0}',
            '{"op":"measure","basis":"Z","q":0,"raw":1}',
        ])
        _, outcomes = pf.run_circuit(pf.PauliFrame(1), circuit)
        assert outcomes == [+1]

    def test_input_frame_not_mutated(self):
        frame = pf.PauliFrame(1)
        pf.run_circuit(frame, pf.parse_circuit(['{"op":"pauli","p":"X","q":0}']))
        assert frame.letters == ["I"]
        # Nor is the circuit, which can be run again.
        lines = [
            '{"op":"clifford","g":"CNOT","q":[0,1]}',
            '{"op":"clifford","g":"H","q":1}',
            '{"op":"measure","basis":"X","q":0,"raw":-1}',
            '{"op":"pauli","p":"Y","q":1}',
        ]
        circuit = pf.parse_circuit(lines)
        frame = pf.PauliFrame(letters=["X", "Z", "Y"])
        first = pf.run_circuit(frame, circuit)
        assert frame.letters == ["X", "Z", "Y"]
        assert decoded(circuit) == decoded(pf.parse_circuit(lines))
        assert pf.run_circuit(frame, circuit) == first
        assert first[0].letters == ["I", "I", "Y"] and first[1] == [+1]

    def test_qubit_outside_frame_raises_before_anything_runs(self):
        circuit = pf.parse_circuit(['{"op":"measure","basis":"Z","q":0,"raw":1}',
                                    '{"op":"pauli","p":"X","q":3}'])
        with pytest.raises(ValueError, match="the circuit uses 4 qubits, more than the 2-qubit frame"):
            pf.run_circuit(pf.PauliFrame(2), circuit)
        cnot = pf.parse_circuit(['{"op":"clifford","g":"CNOT","q":[0,2]}'])
        with pytest.raises(ValueError, match="the circuit uses 3 qubits, more than the 2-qubit frame"):
            pf.run_circuit(pf.PauliFrame(2), cnot)

    @pytest.mark.parametrize("line", [
        lambda: pauli_line("X", -1),
        lambda: measure_line("Z", -1),
        lambda: gate_line("H", -1),
        lambda: gate_line("CNOT", 0, -2),
        lambda: gate_line("CNOT", -1, 1),
    ], ids=["pauli", "measure", "h", "cnot-target", "cnot-control"])
    def test_negative_qubit_raises_and_never_wraps(self, line):
        # A negative qubit is a parse error, never a list index from the end.
        frame = pf.PauliFrame(letters=["X", "Z"])
        with pytest.raises(pf.CircuitParseError, match=(
                r"^line 2: qubit index must be a non-negative integer, got -\d$")):
            pf.run_circuit(frame, pf.parse_circuit([pauli_line("Y", 1), line()]))
        assert frame.letters == ["X", "Z"]

    @pytest.mark.parametrize("template", [
        '{{"op":"pauli","p":"X","q":{}}}',
        '{{"op":"measure","basis":"Z","q":{},"raw":1}}',
        '{{"op":"clifford","g":"CNOT","q":[0,{}]}}',
    ], ids=["pauli", "measure", "cnot"])
    def test_a_qubit_too_long_to_print_is_named_by_its_size(self, template):
        # json.dumps cannot write a 5001-digit int, so the line is built as text.
        with pytest.raises(pf.CircuitParseError, match=r"^line 1: invalid JSON \(.*\b5001 digits"):
            pf.parse_circuit([template.format("1" + "0" * 5000)])

    @pytest.mark.parametrize("line", [
        lambda q: pauli_line("X", q),
        lambda q: measure_line("Z", q),
        lambda q: gate_line("H", q),
        lambda q: gate_line("CNOT", q, 0),
        lambda q: gate_line("CNOT", 1, q),
    ], ids=["pauli", "measure", "h", "cnot", "cnot-target"])
    @pytest.mark.parametrize("qubit", [1.0, True, "1", None])
    def test_a_qubit_that_is_not_an_int_is_named(self, line, qubit):
        frame = pf.PauliFrame(letters=["X", "Z"])
        with pytest.raises(pf.CircuitParseError, match=re.escape(
                f"line 1: qubit index must be a non-negative integer, got {qubit!r}")):
            pf.run_circuit(frame, pf.parse_circuit([line(qubit)]))
        assert frame.letters == ["X", "Z"]

    @pytest.mark.parametrize("frame, circuit, names", [
        (None, lambda: pf.parse_circuit([]), "NoneType and a Circuit"),
        (pf.PauliFrame(1), lambda: ['{"op":"pauli","p":"X","q":0}'], "PauliFrame and a list"),
        (["I"], lambda: pf.parse_circuit([]), "list and a Circuit"),
    ], ids=["no-frame", "lines-for-circuit", "letters-for-frame"])
    def test_a_wrong_frame_or_circuit_type_is_named(self, frame, circuit, names):
        with pytest.raises(ValueError, match=re.escape(
                f"run_circuit takes a PauliFrame and a Circuit, got a {names}")):
            pf.run_circuit(frame, circuit())

    def test_frame_methods_reject_negative_qubits(self):
        # Every line kind that changes a frame checks its qubit before the frame is touched.
        frame = pf.PauliFrame(2)
        for line in (pauli_line("X", -1), gate_line("S", -1), measure_line("Z", -2)):
            with pytest.raises(pf.CircuitParseError, match="non-negative integer"):
                pf.run_circuit(frame, pf.parse_circuit([line]))
        assert frame.letters == ["I", "I"]


class TestCircuitParsing:
    def test_parse_documented_format(self):
        lines = [
            '{"op":"pauli","p":"X","q":0}',
            '{"op":"clifford","g":"CNOT","q":[0,1]}',
            '{"op":"measure","basis":"Z","q":0,"raw":1}',
        ]
        circuit = pf.parse_circuit(lines)
        assert decoded(circuit) == [
            ("pauli", "X", (0,), None),
            ("clifford", "CNOT", (0, 1), None),
            ("measure", "Z", (0,), 1),
        ]
        assert len(circuit) == 3
        assert circuit.num_qubits == 2

    def test_readme_and_bench_lines_take_the_compact_path(self):
        section = (ROOT / "README.md").read_text(encoding="utf-8").split("### Circuit files", 1)[1]
        readme = re.search(r"```\n(.*?)```", section, re.S).group(1).splitlines()
        spec = importlib.util.spec_from_file_location("bench_checks", ROOT / "bench" / "checks.py")
        checks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)
        # One instruction of each shape the benchmark's circuits hold.
        shapes = [("pauli", p, 7, None) for p in "XYZ"]
        shapes += [("clifford", g, 999, None) for g in ("H", "S", "S_dagger")]
        shapes += [("clifford", "CNOT", 0, 999)]
        shapes += [("measure", b, 10, raw) for b in "XYZ" for raw in (1, -1)]
        lines = readme + [checks.format_instruction(shape) for shape in shapes]
        assert len(lines) == 3 + 13
        for line in lines:
            # load_circuit gives _LINES each line's bytes with its line break.
            for text in (line.encode() + ending for ending in (b"\n", b"\r\n", b"\r")):
                (match,) = pf._LINES.findall(text)
                assert match[-1] == b"", text  # the catch-all group, which goes to json.loads
                circuit = pf.Circuit()
                assert pf._pack(circuit, [match], 0) == 1
                row = circuit.actions[0], circuit.qubits[0], (circuit.targets or [None])[0]
                assert row == pf._line_row(json.loads(line)), text

    @pytest.mark.parametrize("item", [5, None, ["{}"], {"op": "pauli"}], ids=["int", "none", "list", "dict"])
    def test_an_item_that_is_not_text_names_its_line(self, item):
        with pytest.raises(pf.CircuitParseError, match=re.escape(
                f"line 2: a circuit line must be text, got {item!r}")) as raised:
            pf.parse_circuit(['{"op":"pauli","p":"X","q":0}', item])
        assert raised.value.line_number == 2

    @pytest.mark.parametrize("lines", [None, 5, 1.5], ids=["none", "int", "float"])
    def test_lines_that_are_not_iterable_are_a_value_error(self, lines):
        with pytest.raises(ValueError, match=re.escape(
                f"circuit lines must be an iterable of text, got {lines!r}")):
            pf.parse_circuit(lines)

    def test_invalid_json_reports_line_number(self):
        with pytest.raises(pf.CircuitParseError, match="line 2"):
            pf.parse_circuit(['{"op":"pauli","p":"X","q":0}', "{nope"])

    def test_a_byte_order_mark_gets_the_json_loads_message(self):
        line = '\ufeff{"op":"pauli","p":"X","q":0}'
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(line.strip())
        with pytest.raises(pf.CircuitParseError) as got:
            pf.parse_circuit([line])
        assert str(got.value) == f"line 1: invalid JSON ({expected.value.msg})"
        assert "BOM" in str(got.value)

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

    @pytest.mark.parametrize("line", [
        b'{"op":"pauli","p":"X","q":0,"note":"\xff"}',  # an extra field json.loads would pass
        b'{"op":"pauli","p":"\xff","q":0}',
        b'{"op":"pauli","p":"X","q":0}\xc3',
        b"\xed\xb2\x80",  # an encoded surrogate, which UTF-8 forbids
    ], ids=["extra-field", "pauli", "after-compact", "surrogate"])
    def test_bytes_that_are_not_utf8_are_a_parse_error(self, line, tmp_path):
        path = tmp_path / "circuit.jsonl"
        good = b'{"op":"pauli","p":"X","q":0}\n'
        path.write_bytes(good + line + b"\n" + good)
        with pytest.raises(pf.CircuitParseError, match=r"^line 2: not UTF-8 text$"):
            pf.load_circuit(path)
        # An earlier bad line is still the one reported.
        path.write_bytes(b"{nope\n" + line + b"\n")
        with pytest.raises(pf.CircuitParseError, match=r"^line 1: invalid JSON"):
            pf.load_circuit(path)

    def test_utf8_text_outside_ascii_is_read(self, tmp_path):
        path = tmp_path / "circuit.jsonl"
        path.write_text('{"op":"pauli","p":"X","q":0,"note":"\u00e9\u2028"}\n', encoding="utf-8")
        assert decoded(pf.load_circuit(path)) == [("pauli", "X", (0,), None)]

    def test_circuit_packs_and_indexes_instructions(self):
        objects = [
            {"op": "pauli", "p": "I", "q": 4},
            {"op": "clifford", "g": "S_dagger", "q": 2},
            {"op": "clifford", "g": "Y", "q": [0]},
            {"op": "clifford", "g": "CNOT", "q": [1, 6]},
            {"op": "measure", "basis": "Y", "q": 3, "raw": 1},
            {"op": "measure", "basis": "X", "q": 5, "raw": -1},
        ]
        circuit = pf.parse_circuit(map(json.dumps, objects))
        assert len(circuit) == len(circuit.actions) == len(circuit.qubits) == 6
        assert list(circuit.targets) == [6]
        assert decoded(circuit) == [expected_row(obj) for obj in objects]
        assert circuit.num_qubits == 7
        assert pf.parse_circuit([]).num_qubits == 0

    def test_an_instruction_takes_an_action_byte_and_a_qubit_and_a_cnot_its_target(self):
        lines = ['{"op":"clifford","g":"CNOT","q":[0,1]}', '{"op":"pauli","p":"X","q":2}',
                 '{"op":"clifford","g":"CNOT","q":[3,2]}', '{"op":"measure","basis":"Z","q":1,"raw":1}']
        circuit = pf.parse_circuit(lines)
        assert circuit.actions.itemsize == 1
        assert circuit.qubits.itemsize == circuit.targets.itemsize == 4
        assert len(circuit.targets) == sum('"CNOT"' in line for line in lines) == 2
        assert len(pf.parse_circuit(lines[1::2]).targets) == 0

    def test_qubit_beyond_the_frame_limit_is_a_parse_error(self):
        largest = pf.MAX_FRAME_QUBITS - 1
        circuit = pf.parse_circuit([f'{{"op":"pauli","p":"X","q":{largest}}}',
                                    f'{{"op":"clifford","g":"CNOT","q":[0,{largest}]}}'])
        assert circuit.num_qubits == pf.MAX_FRAME_QUBITS
        assert decoded(circuit) == [("pauli", "X", (largest,), None),
                                    ("clifford", "CNOT", (0, largest), None)]
        message = r"line 2: qubit index must be below 1048576 \(the frame-size limit\)"
        for q in (largest + 1, 2 ** 63, 10 ** 30):
            for line in (f'{{"op":"pauli","p":"X","q":{q}}}',
                         f'{{"op":"clifford","g":"CNOT","q":[0,{q}]}}'):
                with pytest.raises(pf.CircuitParseError, match=message):
                    pf.parse_circuit(['{"op":"pauli","p":"X","q":0}', line])

    @pytest.mark.parametrize("size", [-1, pf.MAX_FRAME_QUBITS + 1, 10 ** 15])
    def test_frame_size_is_bounded(self, size):
        with pytest.raises(ValueError, match="frame-size limit"):
            pf.PauliFrame(size)

    @pytest.mark.parametrize("size", [True, False, 2.0, "2", None])
    def test_frame_size_must_be_an_int(self, size):
        with pytest.raises(ValueError, match=re.escape(f"num_qubits must be an integer, got {size!r}")):
            pf.PauliFrame(size)

    @pytest.mark.parametrize("letters", [
        True, 1.5, 10 ** 400, iter("XZ"), {"X": 1, "Z": 2}, {"X", "Z"}, frozenset("XZ"), range(2),
    ], ids=["bool", "float", "huge", "iterator", "dict", "set", "frozenset", "range"])
    def test_letters_that_are_not_a_str_list_or_tuple_are_named(self, letters):
        """A dict would give its keys and a set an arbitrary order, so neither is a frame."""
        message = f"letters must be a str, list or tuple of Paulis, got a {type(letters).__name__}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pf.PauliFrame(letters=letters)

    @pytest.mark.parametrize("letters", ["XZ", ["X", "Z"], ("X", "Z")], ids=["str", "list", "tuple"])
    def test_letters_in_a_str_list_or_tuple_are_taken_in_order(self, letters):
        assert pf.PauliFrame(letters=letters).letters == ["X", "Z"]

    @pytest.mark.parametrize("num_qubits, letters", [(3, "XY"), (1, ["X", "Z"]), (5, ("I",) * 6)])
    def test_a_size_that_differs_from_the_letters_names_both(self, num_qubits, letters):
        message = (f"num_qubits does not match the letter array length: num_qubits is {num_qubits}, "
                   f"letters has {len(letters)}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pf.PauliFrame(num_qubits, letters=letters)

    def test_letter_frame_size_is_bounded(self):
        with pytest.raises(ValueError, match="frame-size limit"):
            pf.PauliFrame(letters="I" * (pf.MAX_FRAME_QUBITS + 1))

    @pytest.mark.parametrize("lines, line", [
        (['{"op":"measure","basis":"Z","q":0}'], 1),
        (["", '{"op":"pauli","p":"X","q":0}', " ", "\t",
          '{"op":"measure","basis":"Z","q":0,"raw":1}', "",
          '{"op":"measure","basis":"X","q":1}', '{"op":"measure","basis":"Z","q":1}'], 7),
        (['{"op":"measure","basis":"Z","q":0,"raw":null}'], 1),
    ], ids=["one-line", "after-blank-lines", "null"])
    def test_missing_raw_names_its_line(self, lines, line):
        with pytest.raises(pf.CircuitParseError, match=f"^line {line}: measurement has no raw outcome$"):
            pf.parse_circuit(lines)


# How a packed circuit encodes each instruction, kept here so that the
# parser is checked against the README's format, not against its own tables.
# A Pauli's code is x | z << 1: I=0, X=1, Z=2, Y=3.  Each action byte names
# what its line said: 0-3 a Pauli by code, 4-6 H, S and S_dagger, 7-9 the X,
# Z and Y gates, 10-15 a measurement (8 + 2 * basis code + raw code) and 16
# a CNOT, whose target is the next entry of the ``targets`` column.
CODE_LETTER = "IXZY"
RAW_OF_CODE = (1, -1)
CNOT_ACTION = 16
ACTION_ROWS = {
    **{code: ("pauli", letter, None) for code, letter in enumerate(CODE_LETTER)},
    4: ("clifford", "H", None),
    5: ("clifford", "S", None),
    6: ("clifford", "S_dagger", None),
    **{6 + code: ("clifford", CODE_LETTER[code], None) for code in (1, 2, 3)},
    **{8 + 2 * code + raw_code: ("measure", CODE_LETTER[code], raw)
       for code in (1, 2, 3) for raw_code, raw in enumerate(RAW_OF_CODE)},
}


def decoded(circuit):
    """The packed columns as (op, name, targets, raw) tuples, through the table above."""
    rows = []
    targets = iter(circuit.targets)
    for action, q in zip(circuit.actions, circuit.qubits, strict=True):
        if action == CNOT_ACTION:
            rows.append(("clifford", "CNOT", (q, next(targets)), None))
        else:
            op, name, raw = ACTION_ROWS[action]
            rows.append((op, name, (q,), raw))
    assert next(targets, None) is None, "a target left over"
    return rows


def targets_of(obj):
    return tuple(obj["q"]) if isinstance(obj["q"], list) else (obj["q"],)


def expected_row(obj):
    """The (op, name, targets, raw) tuple of a valid instruction object."""
    name = {"pauli": "p", "clifford": "g", "measure": "basis"}[obj["op"]]
    return obj["op"], obj[name], targets_of(obj), obj.get("raw")


def dense_run(letters, objects):
    """Run instruction objects on a dense 2^n x 2^n frame operator, the oracle for run_circuit."""
    n = len(letters)
    frame = kron_letters(letters)
    outcomes = []
    for obj in objects:
        targets = targets_of(obj)
        if obj["op"] == "pauli":
            frame = embed(PAULI[obj["p"]], targets, n) @ frame
        elif obj["op"] == "clifford":
            u = CNOT_01 if obj["g"] == "CNOT" else GATE_MATRIX[obj["g"]]
            u = embed(u, targets, n)
            frame = u @ frame @ u.conj().T
        else:
            basis = embed(PAULI[obj["basis"]], targets, n)
            flips = matrices_anticommute(frame, basis)
            outcomes.append(-obj["raw"] if flips else obj["raw"])
            reset = list(letters_from_matrix(frame))
            reset[targets[0]] = "I"
            frame = kron_letters(reset)
    return letters_from_matrix(frame), outcomes


def instruction_kinds(n):
    """Strategies for random instruction objects on n qubits, in the README's format, by kind."""
    qubit = st.integers(0, n - 1)
    kinds = {
        "pauli": st.fixed_dictionaries({"op": st.just("pauli"), "p": st.sampled_from(LETTERS),
                                        "q": qubit}),
        "clifford": st.fixed_dictionaries({"op": st.just("clifford"),
                                           "g": st.sampled_from(tuple(GATE_MATRIX)), "q": qubit}),
        "measure": st.fixed_dictionaries({"op": st.just("measure"), "basis": st.sampled_from("XYZ"),
                                          "q": qubit, "raw": st.sampled_from((1, -1))}),
    }
    if n > 1:
        kinds["cnot"] = st.permutations(range(n)).map(
            lambda order: {"op": "clifford", "g": "CNOT", "q": order[:2]}
        )
    return kinds


def instructions_on(n):
    """A random instruction object on n qubits."""
    return st.one_of(list(instruction_kinds(n).values()))


def circuits_on(n):
    """Initial frame letters and a random list of instruction objects on n qubits."""
    letters = st.lists(st.sampled_from(LETTERS), min_size=n, max_size=n)
    return st.tuples(letters, st.lists(instructions_on(n), max_size=24))


def compact(obj):
    """``obj`` as JSON without spaces, as in the README's circuit lines."""
    return json.dumps(obj, separators=(",", ":"))


def instruction_line(obj, listed=False, dumps=json.dumps):
    """The JSON line of an instruction object; ``listed`` writes a lone target as a one-element list."""
    if listed and obj["op"] == "clifford" and not isinstance(obj["q"], list):
        obj = {**obj, "q": [obj["q"]]}
    return dumps(obj)


@settings(max_examples=200, deadline=None)
@given(st.one_of(circuits_on(1), circuits_on(2), circuits_on(3)))
def test_run_circuit_matches_dense_oracle(case):
    letters, objects = case
    expected_letters, expected_outcomes = dense_run(letters, objects)
    circuit = pf.parse_circuit(map(instruction_line, objects))
    final, outcomes = pf.run_circuit(pf.PauliFrame(letters=letters), circuit)
    assert outcomes == expected_outcomes
    assert "".join(final.letters) == expected_letters


class OracleParseError(Exception):
    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


FRAME_LIMIT = 2 ** 20  # the README's frame-size limit


def oracle_parse(lines):
    """The parser before circuits were packed: ``json.loads(line.strip())``,
    then the README's field checks, into (op, name, targets, raw) tuples."""
    rows = []
    for line_number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        if any("\udc80" <= char <= "\udcff" for char in text):  # bytes kept by "surrogateescape"
            raise OracleParseError(line_number, "not UTF-8 text")
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise OracleParseError(line_number, f"invalid JSON ({exc.msg})") from exc
        rows.append(oracle_row(obj, line_number))
    return rows


def oracle_row(obj, line_number):
    def qubit(value):
        if type(value) is not int or value < 0:
            raise ValueError(f"qubit index must be a non-negative integer, got {value!r}")
        if value >= FRAME_LIMIT:
            raise ValueError(
                f"qubit index must be below {FRAME_LIMIT} (the frame-size limit), got {value!r}"
            )
        return value

    def gate(kind, targets):
        if kind not in (*GATE_MATRIX, "CNOT"):
            raise ValueError(f"unknown Clifford gate kind: {kind!r}")
        if kind == "CNOT":
            if len(targets) != 2:
                raise ValueError("CNOT takes exactly two targets")
            if targets[0] == targets[1]:
                raise ValueError("CNOT control and target must be distinct")
        elif len(targets) != 1:
            raise ValueError(f"{kind} takes exactly one target")
        return "clifford", kind, targets, None

    if not isinstance(obj, dict) or "op" not in obj:
        raise OracleParseError(line_number, "instruction must be an object with an 'op' field")
    op = obj["op"]
    try:
        if op == "pauli":
            pauli = obj["p"]
            if pauli not in LETTERS:
                raise ValueError(f"invalid Pauli {pauli!r}")
            return "pauli", pauli, (qubit(obj["q"]),), None
        if op == "clifford":
            targets = obj["q"]
            if not isinstance(targets, list):
                targets = [targets]
            return gate(obj["g"], tuple(map(qubit, targets)))
        if op == "measure":
            raw = obj.get("raw")  # JSON null is no outcome
            if raw is not None and (type(raw) is not int or raw not in RAW_OF_CODE):
                raise ValueError(f"raw outcome must be the integer +1 or -1, got {raw!r}")
            basis = obj["basis"]
            if basis not in ("X", "Y", "Z"):
                raise ValueError(f"measurement basis must be X, Y or Z, got {basis!r}")
            if raw is None:
                raise ValueError("measurement has no raw outcome")
            return "measure", basis, (qubit(obj["q"]),), raw
    except KeyError as exc:
        raise OracleParseError(line_number, f"missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise OracleParseError(line_number, str(exc)) from exc
    raise OracleParseError(line_number, f"unknown op {op!r}")


# str.strip() removes Unicode whitespace; JSON itself allows only the first four.
WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029\u3000"
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 5), st.integers(-2 ** 63, 2 ** 63 - 1), st.floats(),
    st.text(max_size=3), st.sampled_from(("X", "Y", "Z", "I", "H", "S", "CNOT", "pauli")),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=2), children, max_size=3),
    max_leaves=6,
)


def altered_object(obj, key, value):
    """A valid instruction object with one field changed or dropped."""
    obj = dict(obj)
    if value is MISSING:
        obj.pop(key, None)
    else:
        obj[key] = value
    return obj


# (field, instructions that read it, tricky values); MISSING drops the field.
MISSING = object()
KINDS = instruction_kinds(5)
FIELD_CHANGES = (
    ("op", instructions_on(5), ("reset", "Pauli", "MZ", 1, None, MISSING)),
    ("q", instructions_on(5), (True, False, -1, 1.0, FRAME_LIMIT - 1, FRAME_LIMIT,
                               2 ** 63 - 1, "0", [0], [True], MISSING)),
    ("q", KINDS["cnot"], ([], [0], [1, 1], [0, 1, 2], [0, True], [0, -1], [0, 1.0], 3)),
    ("p", KINDS["pauli"], ("I", "x", "Q", "XY", "", 1, None, MISSING)),
    ("g", KINDS["clifford"] | KINDS["cnot"], ("MZ", "T", "h", "CNOT", "H", None, ["H"], MISSING)),
    ("basis", KINDS["measure"], ("I", "x", "", 1, None, MISSING)),
    ("raw", KINDS["measure"], (True, False, 0, 2, 1.0, -1.0, "1", None, MISSING)),
)
# Listing a strategy twice in one_of doubles its weight.
instruction_objects = st.sampled_from(FIELD_CHANGES).flatmap(
    lambda change: st.builds(
        altered_object, change[1], st.just(change[0]),
        st.one_of(st.sampled_from(change[2]), st.sampled_from(change[2]), json_values),
    )
)
padding = st.text(alphabet=WHITESPACE, max_size=3)
# Lines as json.dumps writes them and in the compact form, which takes its own parse path.
valid_lines = st.builds(
    lambda pre, obj, listed, dumps, post: pre + instruction_line(obj, listed, dumps) + post,
    padding, instructions_on(5), st.booleans(), st.sampled_from((json.dumps, compact)), padding,
)
bodies = st.one_of(
    st.builds(instruction_line, instructions_on(5), st.booleans()),
    instruction_objects.map(json.dumps),
    json_values.map(json.dumps),
    st.text(max_size=6),
)
altered_lines = instruction_objects.map(json.dumps) | instruction_objects.map(compact)
any_lines = st.one_of(
    altered_lines,
    altered_lines,
    altered_lines,
    valid_lines,
    padding,
    st.builds(lambda pre, body, post: pre + body + post,
              st.sampled_from(("", "\ufeff")) | padding, bodies, padding),
    st.builds(lambda a, gap, b: a + gap + b, bodies, padding, bodies),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(valid_lines, max_size=4), any_lines, st.lists(valid_lines, max_size=3))
@example([], '\xa0{"op":"pauli","p":"X","q":0}\x85\n', [])
@example(['{"op":"pauli","p":"X","q":0}'], '\ufeff{"op":"pauli","p":"X","q":0}', [])
@example([], '\ufeff{"op":"pauli","p":"X","q":0}', [])
@example([], '{"op":"pauli","p":"X","q":0} {"op":"pauli","p":"Z","q":1}', [])
@example([], '{"op":"clifford","g":"CNOT","q":[0,1,2]}', [])
@example([], '{"op":"measure","basis":"Z","q":true,"raw":1.0}', [])
# Surrogates: json.loads takes a lone high one, and the pair stands for two
# undecodable bytes, not the "\u00e9" they would decode to.
@example([], '{"op":"pauli","p":"X","q":0,"note":"\ud800"}', [])
@example([], '{"op":"pauli","p":"X","q":0,"note":"\udcc3\udca9"}', [])
@example(['{nope'], '{"op":"pauli","p":"X","q":0}\udc80', [])
def test_parse_circuit_matches_json_loads_oracle(before, line, after):
    lines = [*before, line, *after]
    try:
        expected = oracle_parse(lines)
    except OracleParseError as exc:
        with pytest.raises(pf.CircuitParseError) as got:
            pf.parse_circuit(lines)
        assert got.value.line_number == exc.line_number
        assert str(got.value) == str(exc)
        return
    circuit = pf.parse_circuit(lines)
    assert decoded(circuit) == expected
    assert circuit.num_qubits == max((q for row in expected for q in row[2]), default=-1) + 1


@settings(max_examples=200, deadline=None)
@given(st.lists(valid_lines, max_size=4), any_lines, st.lists(valid_lines, max_size=3))
@example([], '{"op":"measure","basis":"Z","q":0}', [])
@example(["", '{"op":"pauli","p":"X","q":0}', " "], '{"op":"measure","basis":"X","q":0}', [])
@example(['{"op":"pauli","p":"X","q":0}'], '{"op":"measure","basis":"Z","q":0,"raw":null}', [])
@example([], '{"op":"pauli","p":"X","q":1048576}', [])
@example([], "\ufeff", [])
def test_frame_exec_exits_0_with_json_or_2_with_one_error_line(before, line, after):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "circuit.jsonl"
        path.write_text("\n".join([*before, line, *after]) + "\n", encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["frame", "exec", str(path)])
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue())
    else:
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from((1, -1))), st.lists(st.sampled_from("IXYZ")))
@example([], [])
@example([1], [])
@example([], ["Y"])
def test_the_report_is_the_json_encoders_text(outcomes, letters):
    report = pf.format_report(pf.PauliFrame(letters=letters), outcomes)
    assert report == json.dumps({"outcomes": outcomes, "frame": letters}, indent=2) + "\n"


def assert_load_matches_oracle(path):
    """``load_circuit(path)`` against ``oracle_parse`` of the file's lines as text-mode iteration yields them."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        lines = list(handle)
    try:
        expected = oracle_parse(lines)
    except OracleParseError as exc:
        with pytest.raises(pf.CircuitParseError) as got:
            pf.load_circuit(path)
        assert (got.value.line_number, str(got.value)) == (exc.line_number, str(exc))
        return
    circuit = pf.load_circuit(path)
    assert decoded(circuit) == expected
    assert circuit.num_qubits == max((q for row in expected for q in row[2]), default=-1) + 1


# Lines that must read alike wherever a chunk boundary falls in or beside them.
BOUNDARY_LINES = {
    "bad-json": b"{nope",
    "bad-compact": b'{"op":"pauli","p":"X","q":1048576}',
    "one-qubit-cnot": b'{"op":"clifford","g":"CNOT","q":[5,5]}',
    "compact": b'{"op":"measure","basis":"Y","q":12,"raw":-1}',
    "spaced": b'{"op": "clifford", "g": "CNOT", "q": [3, 4]}',
    "multibyte": '{"op":"pauli","p":"Z","q":2,"note":"é€\U0001f600"}'.encode(),
    "undecodable": b'{"op":"pauli","p":"X","q":0,"note":"\xe2\x82"}',
    "blank": b"",
    "whitespace": " \t\x0c 　".encode(),
}


@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("line", BOUNDARY_LINES.values(), ids=BOUNDARY_LINES)
def test_load_circuit_reads_alike_at_every_chunk_boundary(line, ending, tmp_path, monkeypatch):
    path = tmp_path / "circuit.jsonl"
    first = b'{"op":"clifford","g":"CNOT","q":[0,1]}'
    # The long head puts the file object's first 8192-byte read boundary just
    # after the first byte of the line's first multi-byte sequence.
    split = next((i for i, byte in enumerate(line) if byte >= 0x80), 0) + 1
    for head_size in (len(first) + len(ending), 8192 - split):
        head = first + b" " * (head_size - len(first) - len(ending)) + ending
        for tail in (ending + first + ending, ending + first, ending, b""):
            path.write_bytes(head + line + tail)
            # The first chunk is exactly _CHUNK characters; "\r\n" reads as one.
            for boundary in range(len(head) - 3, len(head) + len(line) + 3):
                monkeypatch.setattr(pf, "_CHUNK", boundary)
                assert_load_matches_oracle(path)


def test_a_file_of_lone_carriage_returns_is_packed_a_chunk_at_a_time(tmp_path, monkeypatch):
    line = b'{"op":"pauli","p":"X","q":0}'
    path = tmp_path / "circuit.jsonl"
    path.write_bytes((line + b"\r") * 100)
    packed = []
    pack = pf._pack

    def spy(circuit, lines, line_number):
        packed.append(len(lines))
        return pack(circuit, lines, line_number)

    monkeypatch.setattr(pf, "_pack", spy)
    monkeypatch.setattr(pf, "_CHUNK", 4 * len(line))
    assert len(pf.load_circuit(path)) == 100
    # A chunk is the carried rest (at most one line) and a read of _CHUNK bytes
    # plus the rest's length, so it holds under 7 lines.
    assert sum(packed) == 100 and max(packed) <= 6


file_lines = st.one_of(
    valid_lines, altered_lines, any_lines, padding,
).map(lambda text: text.encode("utf-8", "surrogatepass")) | st.sampled_from(
    [*BOUNDARY_LINES.values(), b"\xff", b'{"op":"pauli","p":"X","q":0}\xc3']
)


@settings(max_examples=300, deadline=None)
@given(st.lists(file_lines, max_size=8), st.sampled_from((b"\n", b"\r\n", b"\r")), st.booleans(),
       st.integers(1, 48))
# Near misses of the compact form.
@example([b'{"op":"pauli","p":"X","q":01}'], b"\n", True, 48)
@example([b'{"op":"pauli","p":"X","q":-0}'], b"\n", True, 48)
@example([b'{"op":"clifford","g":"H","q":10000000}'], b"\n", True, 48)
@example([b'{"op":"clifford","g":"S","q":1048576}'], b"\n", True, 48)
@example([b'{"op":"clifford","g":"S_dagger","q":1048575}'], b"\n", True, 48)
@example([b'{"op":"clifford","g":"CNOT","q":[3,3]}'], b"\n", True, 48)
@example([b'{"op":"clifford","g":"CNOT","q":[0,1048576]}'], b"\n", True, 48)
@example([b'{"op":"clifford","g":"CNOT","q":[1048576,0]}'], b"\n", True, 48)
@example([b'{"op":"measure","basis":"Z","q":0,"raw":1.0}'], b"\n", True, 48)
@example([b'{"op":"measure","basis":"Z","q":0,"raw":-0}'], b"\n", True, 48)
@example([b'{"op":"measure","basis":"Z","q":0}'], b"\n", True, 48)
@example([b'{"op":"pauli","p":"X","q":\xd9\xa3}'], b"\n", True, 48)
@example([b'{"op":"pauli","p":"X","q":0}', b""], b"\n", True, 48)
@example([b'{"op":"pauli","p":"X","q":0,"q":1}'], b"\n", True, 48)
@example([b'{"op":"pauli","p":"X","q":0,"note":"\xff"}'], b"\n", True, 48)
def test_load_circuit_matches_the_oracle_at_any_chunk_size(lines, ending, final_newline, chunk):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        path = Path(tmp) / "circuit.jsonl"
        path.write_bytes(ending.join(lines) + (ending if final_newline else b""))
        patch.setattr(pf, "_CHUNK", chunk)
        assert_load_matches_oracle(path)
