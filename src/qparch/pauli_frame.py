"""Classical Pauli-frame engine.

A frame stores the Pauli correction that *would* have been applied to each
qubit.  Pauli gates fold into the frame instead of running on hardware;
implemented Clifford gates conjugate it; measurement outcomes are
reinterpreted against it.  Phases are discarded throughout, so each qubit's
Pauli is an (x, z) bit pair, I=(0,0), X=(1,0), Z=(0,1), Y=(1,1), and all frame
algebra is XOR, as in CHP (Aaronson & Gottesman 2004) and Stim's frame
simulator (Gidney 2021).  Letters appear only at the I/O boundary.

Circuits come in as JSON lines, each self-contained (a measurement carries
its own raw outcome), so every check happens while parsing.  They are held
only as packed (op, qubit, arg) rows in parallel ``array`` columns
(``Circuit``).  One loop of XORs over them (``_execute``) runs every frame
update: ``run_circuit`` is the only way to change a frame.
"""

from __future__ import annotations

import json
import os
import re
from array import array
from collections.abc import Iterable, Mapping, Sequence

from .errors import is_int, shown

MEASUREMENT_BASES = ("X", "Y", "Z")

_LETTER_OF_CODE = "IXZY"  # a Pauli's code is x | z << 1
_CODE = {letter: code for code, letter in enumerate(_LETTER_OF_CODE)}

# Op codes of a packed circuit, and what each keeps in the ``args`` column.
_PAULI = 0  # fold a Pauli into the frame; arg: its code
_CNOT = 1  # the qubit column holds the control; arg: the target
_H = 2  # arg: 0
_S = 3  # arg: 0 for S, 1 for S_dagger, which act alike on the frame
_MEASURE = 4  # arg: basis code | raw code << 2
_PAULI_GATE = 5  # an implemented X, Y or Z gate, which leaves the frame alone; arg: its code

# (op, arg) of each single-qubit Clifford gate kind.
_GATE_OPS = {"H": (_H, 0), "S": (_S, 0), "S_dagger": (_S, 1),
             "X": (_PAULI_GATE, 1), "Z": (_PAULI_GATE, 2), "Y": (_PAULI_GATE, 3)}
_RAW = (1, -1)  # a measurement's raw outcome by raw code
_RAW_CODE = {raw: code for code, raw in enumerate(_RAW)}
# A frame holds at most this many qubits, so a circuit line names a qubit
# below it.  A frame at the limit takes about 17 MB (two lists of bits) and
# its JSON report about 10 MB; the paper's largest machines have 1e5 logical
# qubits.  A larger qubit or --num-qubits is an input error, not a MemoryError.
MAX_FRAME_QUBITS = 2 ** 20


def _pauli_code(letter: str) -> int:
    try:
        return _CODE[letter]
    except (KeyError, TypeError):
        raise ValueError(f"invalid Pauli {letter!r}") from None


def _gate_op(kind: str, targets: Sequence[int]) -> tuple[int, int, int]:
    """Check a Clifford gate on checked qubits; return its packed (op, qubit, arg)."""
    if kind == "CNOT":
        if len(targets) != 2:
            raise ValueError("CNOT takes exactly two targets")
        if targets[0] == targets[1]:
            raise ValueError("CNOT control and target must be distinct")
        return _CNOT, targets[0], targets[1]
    try:
        op, arg = _GATE_OPS[kind]
    except (KeyError, TypeError):
        raise ValueError(f"unknown Clifford gate kind: {kind!r}") from None
    if len(targets) != 1:
        raise ValueError(f"{kind} takes exactly one target")
    return op, targets[0], arg


def _measure_arg(fields: Mapping) -> int:
    """Check ``raw`` if given, then ``basis``, then that ``raw`` is given; return the packed arg."""
    raw = fields.get("raw")
    if raw is not None and (not is_int(raw) or raw not in _RAW):
        raise ValueError(f"raw outcome must be the integer +1 or -1, got {raw!r}")
    basis = fields["basis"]
    if basis not in MEASUREMENT_BASES:
        raise ValueError(f"measurement basis must be X, Y or Z, got {basis!r}")
    if raw is None:
        raise ValueError("measurement has no raw outcome")
    return _CODE[basis] | _RAW_CODE[raw] << 2


class Circuit:
    """A circuit packed into parallel columns, one entry per instruction.

    ``ops`` holds the op code, ``qubits`` the qubit acted on (a CNOT's
    control) and ``args`` the op's argument (see the op codes above).
    ``num_qubits`` is one more than the highest qubit used: the smallest
    frame the circuit fits.  ``parse_circuit`` builds circuits.
    """

    def __init__(self) -> None:
        self.ops = array("B")
        self.qubits = array("q")
        self.args = array("q")
        self.num_qubits = 0

    def _extend(self, rows: Iterable[tuple[int, int, int]]) -> None:
        """Append packed (op, qubit, arg) rows, tracking the highest qubit."""
        ops, qubits, args = self.ops.append, self.qubits.append, self.args.append
        highest = self.num_qubits - 1
        for op, qubit, arg in rows:
            ops(op)
            qubits(qubit)
            args(arg)
            if qubit > highest:
                highest = qubit
            if op == _CNOT and arg > highest:
                highest = arg
        self.num_qubits = highest + 1

    def __len__(self) -> int:
        return len(self.ops)


def _execute(x: list[int], z: list[int], circuit: Circuit) -> list[int]:
    """Run a packed circuit on the frame bits ``x`` and ``z`` in place.

    The circuit must fit the frame.  Returns the reinterpreted outcomes.
    """
    outcomes = []
    for op, q, arg in zip(circuit.ops, circuit.qubits, circuit.args):
        if op == _PAULI:
            x[q] ^= arg & 1
            z[q] ^= arg >> 1
        elif op == _CNOT:
            x[arg] ^= x[q]
            z[q] ^= z[arg]
        elif op == _H:
            x[q], z[q] = z[q], x[q]
        elif op == _S:
            z[q] ^= x[q]
        elif op == _MEASURE:
            raw = _RAW[arg >> 2]
            # The outcome flips when the frame anticommutes with the basis,
            # i.e. on an odd symplectic product x*bz + z*bx; then reset to I.
            bx, bz = arg & 1, arg >> 1 & 1
            outcomes.append(-raw if x[q] & bz ^ z[q] & bx else raw)
            x[q] = z[q] = 0
        # _PAULI_GATE: X, Y and Z gates commute with every Pauli up to phase.
    return outcomes


class PauliFrame:
    """Per-qubit Pauli corrections tracked in classical memory as (x, z) bits.

    A frame is a value type: ``run_circuit`` returns an updated copy and
    leaves its input alone.  Nothing here touches a quantum state; the engine
    only rewrites bookkeeping.
    """

    def __init__(self, num_qubits: int = 0, letters: Sequence[str] | None = None):
        if not is_int(num_qubits):
            raise ValueError(f"num_qubits must be an integer, got {shown(num_qubits)}")
        if letters is not None:
            if num_qubits and num_qubits != len(letters):
                raise ValueError("num_qubits does not match the letter array length")
            num_qubits = len(letters)
        if not 0 <= num_qubits <= MAX_FRAME_QUBITS:
            raise ValueError(
                f"num_qubits must be between 0 and {MAX_FRAME_QUBITS} (the frame-size limit), "
                f"got {shown(num_qubits)}"
            )
        if letters is not None:
            codes = [_pauli_code(letter) for letter in letters]
            self.x = [code & 1 for code in codes]
            self.z = [code >> 1 for code in codes]
        else:
            self.x = [0] * num_qubits
            self.z = [0] * num_qubits

    @property
    def num_qubits(self) -> int:
        return len(self.x)

    @property
    def letters(self) -> list[str]:
        """The frame as one letter from {I, X, Y, Z} per qubit."""
        return [_LETTER_OF_CODE[x | z << 1] for x, z in zip(self.x, self.z)]

    def copy(self) -> "PauliFrame":
        frame = PauliFrame()
        frame.x, frame.z = self.x.copy(), self.z.copy()
        return frame

    def __eq__(self, other) -> bool:
        return isinstance(other, PauliFrame) and (self.x, self.z) == (other.x, other.z)

    def __repr__(self) -> str:
        return f"PauliFrame({''.join(self.letters)!r})"


class CircuitParseError(ValueError):
    """A malformed circuit line, carrying its 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _qubit(value) -> int:
    if not is_int(value) or value < 0:
        raise ValueError(f"qubit index must be a non-negative integer, got {value!r}")
    if value >= MAX_FRAME_QUBITS:
        raise ValueError(
            f"qubit index must be below {MAX_FRAME_QUBITS} (the frame-size limit), got {value!r}"
        )
    return value


def _line_row(obj) -> tuple[int, int, int]:
    """Check one decoded circuit line; return its packed (op, qubit, arg)."""
    if not isinstance(obj, dict) or "op" not in obj:
        raise ValueError("instruction must be an object with an 'op' field")
    op = obj["op"]
    if op == "pauli":
        code = _pauli_code(obj["p"])
        return _PAULI, _qubit(obj["q"]), code
    if op == "clifford":
        targets = obj["q"]
        kind = obj["g"]
        targets = list(map(_qubit, targets)) if isinstance(targets, list) else [_qubit(targets)]
        return _gate_op(kind, targets)
    if op == "measure":
        arg = _measure_arg(obj)
        return _MEASURE, _qubit(obj["q"]), arg
    raise ValueError(f"unknown op {op!r}")


# A line in the README's compact form (no spaces, fields in the README's
# order, an optional newline), for ``_compact_row``.  A qubit is ``[0-9]``
# digits, not ``\d``, which also matches digits that JSON rejects.
_QUBIT = "(0|[1-9][0-9]{0,6})"
_COMPACT_LINE = re.compile(
    r'\{"op":"(?:pauli","p":"([IXYZ])","q":' + _QUBIT
    + r'|clifford","g":"(?:(S_dagger|[HSXYZ])","q":' + _QUBIT
    + r'|CNOT","q":\[' + _QUBIT + "," + _QUBIT + r"\])"
    + r'|measure","basis":"([XYZ])","q":' + _QUBIT + r',"raw":(-?1))\}\n?'
).fullmatch


def _compact_row(line: str) -> tuple[int, int, int] | None:
    """The packed row of a line in the README's compact form, or None.

    Never raises.  None means the line is in another form, names a qubit at
    or above the frame limit, or is a CNOT on one qubit: ``_line_row``
    decides those lines and words their errors.
    """
    match = _COMPACT_LINE(line)
    if match is None:
        return None
    pauli, qubit, gate, gate_qubit, control, target, basis, measured, raw = match.groups()
    if pauli:
        row = _PAULI, int(qubit), _CODE[pauli]
    elif gate:
        op, arg = _GATE_OPS[gate]
        row = op, int(gate_qubit), arg
    elif control:
        row = _CNOT, int(control), int(target)
        if row[1] == row[2] or row[2] >= MAX_FRAME_QUBITS:
            return None
    else:
        row = _MEASURE, int(measured), _CODE[basis] | _RAW_CODE[int(raw)] << 2
    return row if row[1] < MAX_FRAME_QUBITS else None


def _line_rows(lines: Iterable[str]) -> Iterable[tuple[int, int, int]]:
    """The packed row of each non-blank JSON line; a bad line raises ``CircuitParseError``.

    A line in the README's compact form goes straight to its row
    (``_compact_row``); any other is read by ``json.loads(line.strip())``, so
    every line is accepted or rejected as that call would take it.
    """
    for line_number, line in enumerate(lines, start=1):
        row = _compact_row(line)
        if row is not None:
            yield row
            continue
        text = line.strip()
        if not text:
            continue
        try:
            obj = json.loads(text)
        except ValueError as exc:  # a JSONDecodeError, or an int too long to convert
            raise CircuitParseError(line_number, f"invalid JSON ({getattr(exc, 'msg', exc)})") from exc
        try:
            row = _line_row(obj)
        except KeyError as exc:
            raise CircuitParseError(line_number, f"missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise CircuitParseError(line_number, str(exc)) from exc
        yield row


def parse_circuit(lines: Iterable[str]) -> Circuit:
    """Parse JSON-lines circuit text, one instruction per non-blank line."""
    circuit = Circuit()
    circuit._extend(_line_rows(lines))
    return circuit


def load_circuit(path: str | os.PathLike) -> Circuit:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_circuit(handle)


def run_circuit(frame: PauliFrame, circuit: Circuit) -> tuple[PauliFrame, list[int]]:
    """Execute a circuit against a frame, returning (final frame, outcomes).

    The input frame is not mutated.  A circuit that does not fit the frame
    raises ``IndexError`` before anything runs; nothing else can fail, since
    each measurement carries the raw outcome it reinterprets.
    """
    if circuit.num_qubits > frame.num_qubits:
        raise IndexError(
            f"qubit {circuit.num_qubits - 1} out of range for {frame.num_qubits}-qubit frame"
        )
    result = frame.copy()
    return result, _execute(result.x, result.z, circuit)
