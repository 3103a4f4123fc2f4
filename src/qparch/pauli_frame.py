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
Circuits are held only packed, one action byte per instruction (``Circuit``),
and one loop (``_execute``) runs every frame update, a single-qubit one by one
table lookup: ``run_circuit`` is the only way to change a frame.
"""

from __future__ import annotations

import os
import re
from array import array
from collections.abc import Iterable, Mapping, Sequence

from .errors import check_count, is_int, shown

MEASUREMENT_BASES = ("X", "Y", "Z")

_LETTER_OF_CODE = "IXZY"  # a Pauli's code is x | z << 1
_CODE = {letter: code for code, letter in enumerate(_LETTER_OF_CODE)}

# A packed instruction's action names what its line said: 0-3 fold the Pauli
# of that code; 4-6 are H, S and S_dagger; 7-9 the implemented X, Z and Y
# gates; 10-15 a measurement, 8 + 2 * basis code + raw code; 16 a CNOT.
_GATE_ACTIONS = {"H": 4, "S": 5, "S_dagger": 6, "X": 7, "Z": 8, "Y": 9}
_CNOT = 16
_RAW = (1, -1)  # a measurement's raw outcome by raw code
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


def _gate_row(kind: str, targets: Sequence[int]) -> tuple[int, int, int | None]:
    """Check a Clifford gate on checked qubits; return its (action, qubit, target or None)."""
    if kind == "CNOT":
        if len(targets) != 2:
            raise ValueError("CNOT takes exactly two targets")
        if targets[0] == targets[1]:
            raise ValueError("CNOT control and target must be distinct")
        return _CNOT, targets[0], targets[1]
    try:
        action = _GATE_ACTIONS[kind]
    except (KeyError, TypeError):
        raise ValueError(f"unknown Clifford gate kind: {kind!r}") from None
    if len(targets) != 1:
        raise ValueError(f"{kind} takes exactly one target")
    return action, targets[0], None


def _measure_action(fields: Mapping) -> int:
    """Check ``raw`` if given, then ``basis``, then that ``raw`` is given; return the action."""
    raw = fields.get("raw")
    if raw is not None and (not is_int(raw) or raw not in _RAW):
        raise ValueError(f"raw outcome must be the integer +1 or -1, got {raw!r}")
    basis = fields["basis"]
    if basis not in MEASUREMENT_BASES:
        raise ValueError(f"measurement basis must be X, Y or Z, got {basis!r}")
    if raw is None:
        raise ValueError("measurement has no raw outcome")
    return 8 + 2 * _CODE[basis] + _RAW.index(raw)


class Circuit:
    """A circuit packed into three columns.

    ``actions`` holds each instruction's action (1 byte, see above) and
    ``qubits`` the qubit it acts on (a CNOT's control), 4 bytes since every
    qubit is below ``MAX_FRAME_QUBITS``; ``targets`` holds only the CNOTs'
    targets, in order, so an instruction takes 5 bytes and a CNOT 4 more.
    ``num_qubits`` is one more than the highest qubit used: the smallest
    frame the circuit fits.  ``load_circuit`` builds a circuit from a file's
    bytes, matching each line with ``_LINES``, whose compact forms share one
    qubit group, so a compact line's row comes straight from its groups;
    ``parse_circuit`` builds one from lines of text.
    """

    def __init__(self) -> None:
        self.actions = array("B")
        self.qubits = array("I")
        self.targets = array("I")
        self.num_qubits = 0

    def __len__(self) -> int:
        return len(self.actions)


# The image of each code under each single-qubit action below 10: a Pauli
# folds in by XOR, H swaps x and z, S and S_dagger add x to z, and an
# implemented X, Z or Y gate commutes with every Pauli up to phase.
_IMAGES = (*(tuple(code ^ pauli for code in range(4)) for pauli in range(4)),
           tuple(code >> 1 | (code & 1) << 1 for code in range(4)),
           *[tuple(code ^ (code & 1) << 1 for code in range(4))] * 2, *[(0, 1, 2, 3)] * 3)
# A measurement's outcome by frame code: its raw outcome, flipped when the
# frame anticommutes with the basis (an odd symplectic product x*z' + z*x'),
# that is, when the frame's Pauli is neither I nor the basis.
_OUTCOMES = {8 + 2 * basis + raw_code: tuple(raw if code in (0, basis) else -raw for code in range(4))
             for basis in (1, 2, 3) for raw_code, raw in enumerate(_RAW)}


def _execute(codes: list[int], circuit: Circuit) -> list[int]:
    """Run a packed circuit on the frame's codes in place.

    The circuit must fit the frame.  Returns the reinterpreted outcomes.
    """
    outcomes = []
    images, outcome_of, append, targets = _IMAGES, _OUTCOMES, outcomes.append, iter(circuit.targets)
    for action, q in zip(circuit.actions, circuit.qubits):
        if action < 10:
            codes[q] = images[action][codes[q]]
        elif action == _CNOT:
            t = next(targets)
            codes[t] ^= codes[q] & 1  # x moves from control to target
            codes[q] ^= codes[t] & 2  # z moves from target to control
        else:  # a measurement, which then resets the qubit to I
            append(outcome_of[action][codes[q]])
            codes[q] = 0
    return outcomes


class PauliFrame:
    """Per-qubit Pauli corrections tracked in classical memory as 2-bit codes.

    ``codes`` is one list holding the code ``x | z << 1`` of each qubit's
    Pauli (I=0, X=1, Z=2, Y=3); ``letters`` spells it out.  A frame is a
    value type: ``run_circuit`` returns an updated copy and leaves its input
    alone.  Nothing here touches a quantum state; the engine only rewrites
    bookkeeping.
    """

    def __init__(self, num_qubits: int = 0, letters: str | list[str] | tuple[str, ...] | None = None):
        limit = f"{MAX_FRAME_QUBITS} (the frame-size limit)"
        check_count("num_qubits", num_qubits, 0, MAX_FRAME_QUBITS, limit)
        if letters is None:
            self.codes = [0] * num_qubits
            return
        # A dict would give its keys and a set an arbitrary order.
        if not isinstance(letters, (str, list, tuple)):
            raise ValueError(
                f"letters must be a str, list or tuple of Paulis, got a {type(letters).__name__}"
            )
        if num_qubits and num_qubits != len(letters):
            raise ValueError("num_qubits does not match the letter array length")
        check_count("num_qubits", len(letters), 0, MAX_FRAME_QUBITS, limit)
        self.codes = [_pauli_code(letter) for letter in letters]

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


def _line_row(obj) -> tuple[int, int, int | None]:
    """Check one decoded circuit line; return its (action, qubit, target or None)."""
    if not isinstance(obj, dict) or "op" not in obj:
        raise ValueError("instruction must be an object with an 'op' field")
    op = obj["op"]
    if op == "pauli":
        return _pauli_code(obj["p"]), _qubit(obj["q"]), None
    if op == "clifford":
        targets = obj["q"]
        kind = obj["g"]
        targets = list(map(_qubit, targets)) if isinstance(targets, list) else [_qubit(targets)]
        return _gate_row(kind, targets)
    if op == "measure":
        return _measure_action(obj), _qubit(obj["q"]), None
    raise ValueError(f"unknown op {op!r}")


# The action of a Pauli, of a gate kind and of a measurement's basis and raw
# outcome, keyed by the bytes ``_LINES`` captures.
_CODE_OF_BYTES = {letter.encode(): code for letter, code in _CODE.items()}
_GATE_OF_BYTES = {kind.encode(): action for kind, action in _GATE_ACTIONS.items()}
_MEASURE_OF_BYTES = {f"{basis}{raw}".encode(): _measure_action({"basis": basis, "raw": raw})
                     for basis in MEASUREMENT_BASES for raw in _RAW}

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
    actions, qubits, targets = circuit.actions.append, circuit.qubits.append, circuit.targets.append
    highest = circuit.num_qubits - 1
    try:
        for pauli, gate, cnot, basis, qubit, target, raw, other in lines:
            line_number += 1
            if qubit:
                q = int(qubit)
                if pauli:
                    action = _CODE_OF_BYTES[pauli]
                elif gate:
                    action = _GATE_OF_BYTES[gate]
                elif basis:
                    action = _MEASURE_OF_BYTES[basis + raw]
                else:
                    action, t = _CNOT, int(target)
                    if t == q or t >= MAX_FRAME_QUBITS:
                        _gate_row("CNOT", [_qubit(q), _qubit(t)])
                    if t > highest:
                        highest = t
                    targets(t)
            else:
                if isinstance(other, bytes):  # otherwise a whole ``parse_circuit`` item
                    other = other.decode("utf-8", "surrogateescape")
                elif not isinstance(other, str):
                    raise ValueError(f"a circuit line must be text, got {shown(other)}")
                text = other.strip()
                if not text:
                    continue
                if _UNDECODED_BYTE(text):  # checked first: ``json.loads`` takes a lone surrogate
                    raise ValueError("not UTF-8 text")
                import json  # loaded only when a line is not in compact form
                try:
                    obj = json.loads(text)
                except ValueError as exc:  # a JSONDecodeError, or an int too long to convert
                    raise ValueError(f"invalid JSON ({getattr(exc, 'msg', exc)})") from exc
                action, q, t = _line_row(obj)
                if t is not None:
                    highest = max(highest, t)
                    targets(t)
            if q > highest:  # a qubit at the frame limit is above every one before it
                highest = _qubit(q)
            actions(action)
            qubits(q)
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
    if not isinstance(lines, Iterable):
        raise ValueError(f"circuit lines must be an iterable of text, got {shown(lines)}")
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
    if not isinstance(frame, PauliFrame) or not isinstance(circuit, Circuit):
        raise ValueError(f"run_circuit takes a PauliFrame and a Circuit, "
                         f"got a {type(frame).__name__} and a {type(circuit).__name__}")
    if circuit.num_qubits > frame.num_qubits:
        raise ValueError(
            f"the circuit uses {circuit.num_qubits} qubit{'s' * (circuit.num_qubits != 1)}, "
            f"more than the {frame.num_qubits}-qubit frame"
        )
    result = frame.copy()
    return result, _execute(result.codes, circuit)


def format_report(frame: PauliFrame, outcomes: Sequence[int]) -> str:
    """The ``frame exec`` report, ``json.dumps({"outcomes": outcomes, "frame": frame.letters},
    indent=2) + "\\n"`` written by its known shape, without the pure-Python encoder."""
    outcome_items = ",\n    ".join(map(str, outcomes))
    letter_items = '",\n    "'.join(map(_LETTER_OF_CODE.__getitem__, frame.codes))
    return ('{\n  "outcomes": ' + (f"[\n    {outcome_items}\n  ]" if outcomes else "[]")
            + ',\n  "frame": ' + (f'[\n    "{letter_items}"\n  ]' if frame.codes else "[]") + "\n}\n")
