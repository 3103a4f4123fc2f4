"""Classical Pauli-frame engine.

A frame stores the Pauli correction that *would* have been applied to each
qubit.  Pauli gates fold into the frame instead of running on hardware;
implemented Clifford gates conjugate it; measurement outcomes are
reinterpreted against it; non-Clifford gates are transformed by it before
being handed to hardware.  Phases are discarded throughout, so each qubit's
Pauli is an (x, z) bit pair, I=(0,0), X=(1,0), Z=(0,1), Y=(1,1), and all frame
algebra is XOR, as in CHP (Aaronson & Gottesman 2004) and Stim's frame
simulator (Gidney 2021).  Letters appear only at the I/O boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

PAULI_LETTERS = ("I", "X", "Y", "Z")
MEASUREMENT_BASES = ("X", "Y", "Z")

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

SINGLE_QUBIT_GATES = ("H", "S", "S_dagger", "X", "Y", "Z")
CLIFFORD_GATE_KINDS = SINGLE_QUBIT_GATES + ("CNOT",)

_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_LETTER_OF_BITS = "IXZY"  # indexed by x | z << 1


def _pauli_bits(letter: str) -> tuple[int, int]:
    try:
        return _BITS[letter]
    except (KeyError, TypeError):
        raise ValueError(f"invalid Pauli letter: {letter!r}") from None


@dataclass(frozen=True)
class CliffordGate:
    kind: str
    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in CLIFFORD_GATE_KINDS:
            raise ValueError(f"unknown Clifford gate kind: {self.kind!r}")
        object.__setattr__(self, "targets", tuple(self.targets))
        if self.kind == "CNOT":
            if len(self.targets) != 2:
                raise ValueError("CNOT takes exactly two targets")
            if self.targets[0] == self.targets[1]:
                raise ValueError("CNOT control and target must be distinct")
        elif len(self.targets) != 1:
            raise ValueError(f"{self.kind} takes exactly one target")


class PauliFrame:
    """Per-qubit Pauli corrections tracked in classical memory as (x, z) bits.

    A frame is a value type: methods mutate the instance in place, and
    ``copy()`` produces an independent frame.  Nothing here touches a quantum
    state; the engine only rewrites bookkeeping.
    """

    def __init__(self, num_qubits: int = 0, letters: Sequence[str] | None = None):
        if letters is not None:
            bits = [_pauli_bits(letter) for letter in letters]
            if num_qubits and num_qubits != len(bits):
                raise ValueError("num_qubits does not match the letter array length")
            self.x = [x for x, _ in bits]
            self.z = [z for _, z in bits]
        else:
            if num_qubits < 0:
                raise ValueError("num_qubits must be non-negative")
            self.x = [0] * num_qubits
            self.z = [0] * num_qubits

    @property
    def num_qubits(self) -> int:
        return len(self.x)

    @property
    def letters(self) -> list[str]:
        """The frame as one letter from {I, X, Y, Z} per qubit."""
        return [_LETTER_OF_BITS[x | z << 1] for x, z in zip(self.x, self.z)]

    def copy(self) -> "PauliFrame":
        frame = PauliFrame()
        frame.x, frame.z = self.x.copy(), self.z.copy()
        return frame

    def __eq__(self, other) -> bool:
        return isinstance(other, PauliFrame) and (self.x, self.z) == (other.x, other.z)

    def __repr__(self) -> str:
        return f"PauliFrame({''.join(self.letters)!r})"

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise IndexError(f"qubit {qubit} out of range for {self.num_qubits}-qubit frame")

    def fold_pauli(self, pauli: str, qubit: int) -> None:
        """Multiply a circuit Pauli gate into the frame instead of running it."""
        self._check_qubit(qubit)
        bx, bz = _pauli_bits(pauli)
        self.x[qubit] ^= bx
        self.z[qubit] ^= bz

    def conjugate(self, gate: CliffordGate) -> None:
        """Update the frame for an implemented Clifford gate: F -> U F U^dag."""
        for qubit in gate.targets:
            self._check_qubit(qubit)
        x, z = self.x, self.z
        kind = gate.kind
        if kind == "CNOT":
            control, target = gate.targets
            x[target] ^= x[control]
            z[control] ^= z[target]
        elif kind == "H":
            qubit = gate.targets[0]
            x[qubit], z[qubit] = z[qubit], x[qubit]
        elif kind in ("S", "S_dagger"):
            qubit = gate.targets[0]
            z[qubit] ^= x[qubit]
        # X, Y and Z gates commute with every Pauli up to phase.

    def interpret_measurement(self, basis: str, qubit: int, raw_outcome: int) -> int:
        """Reinterpret a raw +/-1 outcome against the frame.

        The outcome flips exactly when the frame anticommutes with the
        measured basis operator, i.e. when their symplectic product
        ``x*bz + z*bx`` is odd.  The measured qubit is then reset to I,
        treating the projective measurement as establishing a fresh frame.
        """
        if basis not in MEASUREMENT_BASES:
            raise ValueError(f"measurement basis must be X, Y or Z, got {basis!r}")
        if raw_outcome not in (1, -1):
            raise ValueError(f"raw outcome must be +1 or -1, got {raw_outcome!r}")
        self._check_qubit(qubit)
        bx, bz = _BITS[basis]
        flips = self.x[qubit] & bz ^ self.z[qubit] & bx
        self.x[qubit] = self.z[qubit] = 0
        return -raw_outcome if flips else raw_outcome

    def transform_gate(self, matrix: np.ndarray, targets: Sequence[int]) -> np.ndarray:
        """Frame-transform a non-Clifford gate: return F U F^dag.

        ``matrix`` is the 2x2 or 4x4 unitary the circuit requests; the result
        is the gate hardware must actually implement under the current frame.
        """
        matrix = np.asarray(matrix, dtype=complex)
        targets = tuple(targets)
        for qubit in targets:
            self._check_qubit(qubit)
        expected = 2 ** len(targets)
        if matrix.shape != (expected, expected):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match {len(targets)} target(s)"
            )
        letters = self.letters
        frame_op = PAULI_MATRICES[letters[targets[0]]]
        for qubit in targets[1:]:
            frame_op = np.kron(frame_op, PAULI_MATRICES[letters[qubit]])
        return frame_op @ matrix @ frame_op.conj().T


@dataclass(frozen=True)
class PauliInstruction:
    pauli: str
    qubit: int


@dataclass(frozen=True)
class CliffordInstruction:
    gate: CliffordGate


@dataclass(frozen=True)
class MeasureInstruction:
    basis: str
    qubit: int
    raw: int | None = None


Instruction = Union[PauliInstruction, CliffordInstruction, MeasureInstruction]


class CircuitParseError(ValueError):
    """A malformed circuit line, carrying its 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _qubit(value) -> int:
    # bool is an int subclass, so test the exact type: JSON true is not qubit 1.
    if type(value) is not int or value < 0:
        raise ValueError(f"qubit index must be a non-negative integer, got {value!r}")
    return value


def _parse_instruction(obj: dict, line_number: int) -> Instruction:
    if not isinstance(obj, dict) or "op" not in obj:
        raise CircuitParseError(line_number, "instruction must be an object with an 'op' field")
    op = obj["op"]
    try:
        if op == "pauli":
            pauli = obj["p"]
            if pauli not in PAULI_LETTERS:
                raise ValueError(f"invalid Pauli {pauli!r}")
            return PauliInstruction(pauli=pauli, qubit=_qubit(obj["q"]))
        if op == "clifford":
            targets = obj["q"]
            if not isinstance(targets, list):
                targets = [targets]
            return CliffordInstruction(gate=CliffordGate(obj["g"], tuple(map(_qubit, targets))))
        if op == "measure":
            raw = obj.get("raw")
            if raw is not None and (type(raw) is not int or raw not in (1, -1)):
                raise ValueError(f"raw outcome must be the integer +1 or -1, got {raw!r}")
            basis = obj["basis"]
            if basis not in MEASUREMENT_BASES:
                raise ValueError(f"measurement basis must be X, Y or Z, got {basis!r}")
            return MeasureInstruction(basis=basis, qubit=_qubit(obj["q"]), raw=raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise CircuitParseError(line_number, str(exc)) from exc
    raise CircuitParseError(line_number, f"unknown op {op!r}")


def parse_circuit(lines: Iterable[str]) -> list[Instruction]:
    """Parse JSON-lines circuit text, one instruction per non-blank line."""
    instructions = []
    for line_number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CircuitParseError(line_number, f"invalid JSON ({exc.msg})") from exc
        instructions.append(_parse_instruction(obj, line_number))
    return instructions


def load_circuit(path: str | Path) -> list[Instruction]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_circuit(handle)


def circuit_qubit_count(circuit: Sequence[Instruction]) -> int:
    """Smallest frame size that fits every instruction target."""
    highest = -1
    for instr in circuit:
        if isinstance(instr, CliffordInstruction):
            highest = max(highest, *instr.gate.targets)
        else:
            highest = max(highest, instr.qubit)
    return highest + 1


def run_circuit(
    frame: PauliFrame,
    circuit: Sequence[Instruction],
    raw_outcomes: Sequence[int] | None = None,
) -> tuple[PauliFrame, list[int]]:
    """Execute a circuit against a frame, returning (final frame, outcomes).

    The input frame is not mutated.  Measurement instructions take their raw
    outcome from the instruction itself when present, otherwise from the
    ``raw_outcomes`` stream in order; the stream must be consumed exactly.
    """
    result = frame.copy()
    stream = list(raw_outcomes) if raw_outcomes is not None else []
    cursor = 0
    outcomes = []
    for instr in circuit:
        if isinstance(instr, PauliInstruction):
            result.fold_pauli(instr.pauli, instr.qubit)
        elif isinstance(instr, CliffordInstruction):
            result.conjugate(instr.gate)
        else:
            raw = instr.raw
            if raw is None:
                if cursor >= len(stream):
                    raise ValueError("measurement outcome stream underrun")
                raw = stream[cursor]
                cursor += 1
            outcomes.append(result.interpret_measurement(instr.basis, instr.qubit, raw))
    if cursor != len(stream):
        raise ValueError(
            f"measurement outcome stream overrun: {len(stream) - cursor} unused outcome(s)"
        )
    return result, outcomes
