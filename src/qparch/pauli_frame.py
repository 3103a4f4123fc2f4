"""Classical Pauli-frame engine.

A frame stores the Pauli correction that *would* have been applied to each
qubit.  Pauli gates fold into the frame instead of running on hardware;
implemented Clifford gates conjugate it; measurement outcomes are
reinterpreted against it.  Phases are discarded throughout, so each qubit's
Pauli is an (x, z) bit pair, as in CHP (Aaronson & Gottesman 2004) and Stim's
frame simulator (Gidney 2021).  A frame keeps the pair as one 2-bit code
``x | z << 1`` (I=0, X=1, Z=2, Y=3), so a Pauli folds in by one XOR and a
gate or a measurement is an XOR or a lookup in a small table.  Letters appear
only at the I/O boundary.

Circuits come in as JSON lines, each self-contained (a measurement carries
its own raw outcome), so every check happens while parsing.  A file is read
as bytes, 16 K bytes of whole lines at a time, and one ``findall`` of one
bytes pattern (``_LINES``) splits each chunk into lines at ``\n``, ``\r\n``
or ``\r``, the line breaks of text mode.  A line in the README's compact
form comes out as its fields, all four forms sharing one qubit group; any
other line comes out through a catch-all group, is decoded as UTF-8 and goes
to ``json.loads``, as every item of text given to ``parse_circuit`` does.
Circuits are held only as packed (op, qubit, arg) rows in parallel ``array``
columns (``Circuit``).  One loop over the rows (``_execute``) runs every
frame update: ``run_circuit`` is the only way to change a frame.
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
# below it.  A frame at the limit takes about 8 MB (one list of codes) and
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

    ``ops`` holds the op code (1 byte), ``qubits`` the qubit acted on (a
    CNOT's control) and ``args`` the op's argument (see the op codes above),
    4 bytes each: every qubit is below ``MAX_FRAME_QUBITS`` and every other
    arg below 16, so 9 bytes hold an instruction.
    ``num_qubits`` is one more than the highest qubit used: the smallest
    frame the circuit fits.  ``load_circuit`` builds a circuit from a file's
    bytes, matching each line with ``_LINES``, whose compact forms share one
    qubit group, so a compact line's row comes straight from its groups;
    ``parse_circuit`` builds one from lines of text.
    """

    def __init__(self) -> None:
        self.ops = array("B")
        self.qubits = array("I")
        self.args = array("I")
        self.num_qubits = 0

    def __len__(self) -> int:
        return len(self.ops)


# Images of a code under each Clifford that moves it: H swaps x and z, and
# S (or S_dagger) adds x to z.
_H_IMAGE = tuple(code >> 1 | (code & 1) << 1 for code in range(4))
_S_IMAGE = tuple(code ^ (code & 1) << 1 for code in range(4))
# Whether the Paulis of two codes anticommute: an odd symplectic product x*z' + z*x'.
_ANTICOMMUTES = tuple(
    tuple((a & 1) & (b >> 1) ^ (a >> 1) & (b & 1) for b in range(4)) for a in range(4)
)


def _execute(codes: list[int], circuit: Circuit) -> list[int]:
    """Run a packed circuit on the frame's codes in place.

    The circuit must fit the frame.  Returns the reinterpreted outcomes.
    """
    outcomes = []
    for op, q, arg in zip(circuit.ops, circuit.qubits, circuit.args):
        if op == _PAULI:
            codes[q] ^= arg
        elif op == _CNOT:
            codes[arg] ^= codes[q] & 1  # x moves from control to target
            codes[q] ^= codes[arg] & 2  # z moves from target to control
        elif op == _H:
            codes[q] = _H_IMAGE[codes[q]]
        elif op == _S:
            codes[q] = _S_IMAGE[codes[q]]
        elif op == _MEASURE:
            # The outcome flips when the frame anticommutes with the basis; then reset to I.
            raw = _RAW[arg >> 2]
            outcomes.append(-raw if _ANTICOMMUTES[codes[q]][arg & 3] else raw)
            codes[q] = 0
        # _PAULI_GATE: X, Y and Z gates commute with every Pauli up to phase.
    return outcomes


class PauliFrame:
    """Per-qubit Pauli corrections tracked in classical memory as 2-bit codes.

    ``codes`` is one list holding the code ``x | z << 1`` of each qubit's
    Pauli (I=0, X=1, Z=2, Y=3); ``letters`` spells it out.  A frame is a
    value type: ``run_circuit`` returns an updated copy and leaves its input
    alone.  Nothing here touches a quantum state; the engine only rewrites
    bookkeeping.
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
            self.codes = [_pauli_code(letter) for letter in letters]
        else:
            self.codes = [0] * num_qubits

    @property
    def num_qubits(self) -> int:
        return len(self.codes)

    @property
    def letters(self) -> list[str]:
        """The frame as one letter from {I, X, Y, Z} per qubit."""
        return [_LETTER_OF_CODE[code] for code in self.codes]

    def copy(self) -> "PauliFrame":
        frame = PauliFrame()
        frame.codes = self.codes.copy()
        return frame

    def __eq__(self, other) -> bool:
        return isinstance(other, PauliFrame) and self.codes == other.codes

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


# ``_CODE``, ``_GATE_OPS`` and a measurement's raw arg, keyed by the bytes
# ``_LINES`` captures.
_CODE_OF_BYTES = {letter.encode(): code for letter, code in _CODE.items()}
_GATE_OPS_OF_BYTES = {kind.encode(): op for kind, op in _GATE_OPS.items()}
_RAW_ARG_OF_BYTES = {str(raw).encode(): code << 2 for raw, code in _RAW_CODE.items()}

# One circuit line and its line break, for ``_pack``.  A break is ``\n``,
# ``\r\n`` or ``\r``, as text mode reads them.  A line in the README's compact
# form (no spaces, fields in the README's order) fills its kind's group (a
# Pauli, a single-qubit gate, ``CNOT`` or a basis) and the qubit group that
# all four share; conditionals on the ``CNOT`` and basis groups demand a
# CNOT's ``[control,target]`` and a measurement's raw outcome.  Any other
# line fills only the last group.
_QUBIT = rb"(0|[1-9][0-9]{0,6})"
_LINES = re.compile(
    rb'(?:\{"op":"(?:pauli","p":"([IXYZ])|clifford","g":"(?:(S_dagger|[HSXYZ])|(CNOT))'
    + rb'|measure","basis":"([XYZ]))","q":(?(3)\[)' + _QUBIT + rb"(?(3)," + _QUBIT + rb"\])"
    + rb'(?(4),"raw":(-?1))\}|([^\r\n]*))(?:\r\n?|\n)'
)
_CHUNK = 1 << 14  # bytes ``load_circuit`` reads at a time

# A byte that is not UTF-8, as "surrogateescape" decoding keeps it.  The
# compact form is ASCII, so only the ``json.loads`` path looks.
_UNDECODED_BYTE = re.compile("[\udc80-\udcff]").search


def _pack(circuit: Circuit, lines: Iterable[tuple[bytes, ...]], line_number: int) -> int:
    """Append the rows of ``_LINES`` matches to ``circuit``; return the last line's number.

    A compact line is packed from its groups.  Any other non-blank line is
    decoded as UTF-8, keeping bad bytes by "surrogateescape", and read by
    ``json.loads(line.strip())``, so every line is accepted or rejected as
    that call would take it, except that a line holding a byte that is not
    UTF-8 is refused before the call.  A bad line raises
    ``CircuitParseError``, worded by ``_line_row``'s checks.
    """
    ops, qubits, args = circuit.ops.append, circuit.qubits.append, circuit.args.append
    highest = circuit.num_qubits - 1
    try:
        for pauli, gate, cnot, basis, qubit, target, raw, other in lines:
            line_number += 1
            if qubit:
                q = int(qubit)
                if pauli:
                    op, arg = _PAULI, _CODE_OF_BYTES[pauli]
                elif gate:
                    op, arg = _GATE_OPS_OF_BYTES[gate]
                elif basis:
                    op, arg = _MEASURE, _CODE_OF_BYTES[basis] | _RAW_ARG_OF_BYTES[raw]
                else:
                    op, arg = _CNOT, int(target)
                    if arg == q or arg >= MAX_FRAME_QUBITS:
                        _gate_op("CNOT", [_qubit(q), _qubit(arg)])
                    if arg > highest:
                        highest = arg
            else:
                if isinstance(other, bytes):  # a str is a whole ``parse_circuit`` item
                    other = other.decode("utf-8", "surrogateescape")
                text = other.strip()
                if not text:
                    continue
                if _UNDECODED_BYTE(text):  # checked first: ``json.loads`` takes a lone surrogate
                    raise ValueError("not UTF-8 text")
                try:
                    obj = json.loads(text)
                except ValueError as exc:  # a JSONDecodeError, or an int too long to convert
                    raise ValueError(f"invalid JSON ({getattr(exc, 'msg', exc)})") from exc
                op, q, arg = _line_row(obj)
                if op == _CNOT and arg > highest:
                    highest = arg
            if q > highest:  # a qubit at the frame limit is above every one before it
                highest = _qubit(q)
            ops(op)
            qubits(q)
            args(arg)
    except KeyError as exc:
        raise CircuitParseError(line_number, f"missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CircuitParseError(line_number, str(exc)) from exc
    circuit.num_qubits = highest + 1
    return line_number


def parse_circuit(lines: Iterable[str]) -> Circuit:
    """Parse JSON-lines circuit text, one instruction per non-blank item.

    Each item is read whole by ``json.loads``, as ``load_circuit`` reads a
    line that is not in compact form.
    """
    circuit = Circuit()
    _pack(circuit, ((b"",) * (_LINES.groups - 1) + (line,) for line in lines), 0)
    return circuit


def load_circuit(path: str | os.PathLike) -> Circuit:
    """Parse a circuit file's bytes a chunk of whole lines at a time, one ``findall`` each."""
    circuit = Circuit()
    line_number, rest = 0, b""
    with open(path, "rb") as handle:
        # A line longer than a chunk widens the next read, so it takes time linear in its length.
        while chunk := handle.read(_CHUNK + len(rest)):
            chunk = rest + chunk
            # A final "\r" waits for the next read, which may start with its "\n".
            end = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, -1)) + 1
            line_number = _pack(circuit, _LINES.findall(chunk, 0, end), line_number)
            rest = chunk[end:]
    if rest:
        _pack(circuit, _LINES.findall(rest + b"\n"), line_number)
    return circuit


def run_circuit(frame: PauliFrame, circuit: Circuit) -> tuple[PauliFrame, list[int]]:
    """Execute a circuit against a frame, returning (final frame, outcomes).

    The input frame is not mutated.  A circuit that does not fit the frame
    raises ``ValueError`` before anything runs; nothing else can fail, since
    each measurement carries the raw outcome it reinterprets.
    """
    if circuit.num_qubits > frame.num_qubits:
        raise ValueError(
            f"the circuit uses {circuit.num_qubits} qubit{'s' * (circuit.num_qubits != 1)}, "
            f"more than the {frame.num_qubits}-qubit frame"
        )
    result = frame.copy()
    return result, _execute(result.codes, circuit)
