"""Output checks, one per workload, and the independent frame tracker.

Each check takes a command (see ``workloads.Command``) and the text the
program wrote to stdout, and returns a list of problems; an empty list means
the output is correct.  A command whose check reports a problem counts as a
failed operation.  Standard library only.
"""

from __future__ import annotations

import csv
import io
import json
import math

PULSE_CSV_HEADER = "sequence,pulse_error,tau_s,samples,seed,infidelity"
VIRTUAL_GATE_CSV_HEADER = "theta,pulse_error,samples,seed,infidelity"
SWEEP_CSV_HEADER = (
    "N,app_qubits,distillation_qubits,production_rate,consumption_rate,"
    "throttle,toffoli_depth,runtime_s"
)

# Largest accepted distance of a Monte-Carlo estimate from its quadrature
# reference, in standard errors.
MAX_Z = 5.0

POINT_KEYS = (
    "distance", "logical_error_rate", "virtual_per_logical", "cnot_lattice_steps",
    "hadamard_lattice_steps", "cnot_time_s", "hadamard_time_s", "measurement_time_s",
)
REPORT_KEYS = (
    "app_qubits", "distillation_qubits", "total_logical_qubits", "toffoli_depth",
    "logical_cycles", "code_distance", "virtual_qubits", "chip_area_cm2", "runtime_seconds",
    "runtime_days", "production_rate", "consumption_rate", "throttle_factor",
    "failure_probability", "details",
)

# Factory cross-sections on a 100 000-logical-qubit machine: bits ->
# (production rate, consumption rate), as in the acceptance suite.
PAPER_SWEEP_RATES = {
    512: (84.1, 32.1), 1024: (81.5, 57.8), 2048: (76.1, 105.1),
    4096: (65.5, 192.7), 8192: (44.1, 355.7), 16384: (1.5, 660.6),
}
PAPER_RATE_TOLERANCE = 0.1


class FrameTracker:
    """Pauli frame kept as one (x, z) bit pair per qubit.

    Independent of ``qparch.pauli_frame``: Paulis fold by XOR, H swaps the
    bits, S and S_dagger do ``z ^= x``, CNOT does ``x_t ^= x_c`` and
    ``z_c ^= z_t``, and a measurement flips when the frame's symplectic
    product with the basis is 1, then resets the qubit.
    """

    BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
    LETTERS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}

    def __init__(self, num_qubits: int):
        self.x = [0] * num_qubits
        self.z = [0] * num_qubits
        self.outcomes: list[int] = []

    def apply(self, instr: tuple) -> None:
        op, name, q, arg = instr
        x, z = self.x, self.z
        if op == "pauli":
            bx, bz = self.BITS[name]
            x[q] ^= bx
            z[q] ^= bz
        elif name == "H":
            x[q], z[q] = z[q], x[q]
        elif name in ("S", "S_dagger"):
            z[q] ^= x[q]
        elif name == "CNOT":
            x[arg] ^= x[q]
            z[q] ^= z[arg]
        elif op == "measure":
            bx, bz = self.BITS[name]
            flip = (x[q] & bz) ^ (z[q] & bx)
            self.outcomes.append(-arg if flip else arg)
            x[q] = z[q] = 0
        else:
            raise ValueError(f"unknown instruction {instr!r}")

    def letters(self) -> list[str]:
        return [self.LETTERS[pair] for pair in zip(self.x, self.z)]


def format_instruction(instr: tuple) -> str:
    """One circuit-file line in the format ``qparch frame exec`` reads."""
    op, name, q, arg = instr
    if op == "pauli":
        return f'{{"op":"pauli","p":"{name}","q":{q}}}'
    if name == "CNOT":
        return f'{{"op":"clifford","g":"CNOT","q":[{q},{arg}]}}'
    if op == "clifford":
        return f'{{"op":"clifford","g":"{name}","q":{q}}}'
    return f'{{"op":"measure","basis":"{name}","q":{q},"raw":{arg}}}'


def _nonfinite(value, where: str = "") -> list[str]:
    """Paths of every number in a parsed JSON value that is NaN or infinite."""
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _nonfinite(v, f"{where}.{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _nonfinite(v, f"{where}[{i}]")]
    if isinstance(value, float) and not math.isfinite(value):
        return [f"{where or 'value'} is {value}"]
    return []


def _missing(obj, keys, where: str) -> list[str]:
    if not isinstance(obj, dict):
        return [f"{where} is not an object"]
    return [f"{where} lacks key {k!r}" for k in keys if k not in obj]


def check_pulse_rows(kind: str, text: str, points: list[dict]) -> list[str]:
    """CSV rows in grid order, each within ``MAX_Z`` standard errors of its reference."""
    lines = text.splitlines()
    header = VIRTUAL_GATE_CSV_HEADER if kind == "virtual_gate" else PULSE_CSV_HEADER
    if not lines or lines[0] != header:
        return [f"header is {lines[0] if lines else ''!r}, expected {header!r}"]
    rows = lines[1:]
    if len(rows) != len(points):
        return [f"{len(rows)} rows, expected {len(points)}"]
    problems = []
    for row, point in zip(rows, points):
        fields = row.split(",")
        try:
            if kind == "virtual_gate":
                echo = (float(fields[0]), float(fields[1]), int(fields[2]), int(fields[3]))
                want = (point["theta"], point["pulse_error"], point["samples"], point["seed"])
            else:
                echo = (fields[0], float(fields[1]), float(fields[2]), int(fields[3]), int(fields[4]))
                want = (point["label"], point["pulse_error"], point["tau"], point["samples"], point["seed"])
            value = float(fields[-1])
        except (IndexError, ValueError):
            problems.append(f"malformed row {row!r}")
            continue
        if echo != want or len(fields) != len(header.split(",")):
            problems.append(f"row {row!r} does not echo its grid point {want}")
        elif not math.isfinite(value):
            problems.append(f"row {row!r} has a non-finite infidelity")
        else:
            z = (value - point["mean"]) / point["se"]
            if abs(z) > MAX_Z:
                problems.append(
                    f"row {row!r}: infidelity {value:.6e} is {z:+.1f} standard errors from "
                    f"the quadrature reference {point['mean']:.6e}"
                )
    return problems


def check_frame(text: str, expect: dict) -> list[str]:
    """Outcomes and final frame equal to the bit tracker's."""
    try:
        result = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON ({exc.msg})"]
    problems = _missing(result, ("outcomes", "frame"), "frame report")
    if problems:
        return problems
    outcomes, frame = result["outcomes"], result["frame"]
    if outcomes != expect["outcomes"]:
        first = next(
            (i for i, (a, b) in enumerate(zip(outcomes, expect["outcomes"])) if a != b),
            min(len(outcomes), len(expect["outcomes"])),
        )
        problems.append(
            f"outcomes differ from the bit tracker at measurement {first} "
            f"({len(outcomes)} outcomes, expected {len(expect['outcomes'])})"
        )
    if frame != expect["frame"]:
        problems.append("final frame differs from the bit tracker")
    return problems


def _json_report(text: str) -> tuple[dict | None, list[str]]:
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON ({exc.msg})"]
    if not isinstance(report, dict):
        return None, ["output is not a JSON object"]
    return report, _nonfinite(report)


def check_qec_target(text: str, expect: dict) -> list[str]:
    report, problems = _json_report(text)
    if report is None:
        return problems
    problems += _missing(report, ("target_logical_error", "minimal", "report_distance", "report"), "report")
    if problems:
        return problems
    for name in ("minimal", "report"):
        problems += _missing(report[name], POINT_KEYS, name)
    if problems:
        return problems
    minimal = report["minimal"]
    if not minimal["logical_error_rate"] <= expect["target"]:
        problems.append(
            f"minimal distance {minimal['distance']} misses the target {expect['target']}"
        )
    if report["report"]["distance"] != report["report_distance"]:
        problems.append("report distance and report point disagree")
    if "minimal" in expect and minimal["distance"] != expect["minimal"]:
        problems.append(f"minimal distance {minimal['distance']}, expected {expect['minimal']}")
    if "report" in expect and report["report_distance"] != expect["report"]:
        problems.append(f"report distance {report['report_distance']}, expected {expect['report']}")
    return problems


def check_qec_distance(text: str, expect: dict) -> list[str]:
    report, problems = _json_report(text)
    if report is None:
        return problems
    problems += _missing(report, ("requested",), "report")
    if problems:
        return problems
    problems += _missing(report["requested"], POINT_KEYS, "requested")
    if not problems and report["requested"]["distance"] != expect["distance"]:
        problems.append(f"requested distance {report['requested']['distance']}, expected {expect['distance']}")
    return problems


def _check_budget(report: dict, where: str) -> list[str]:
    problems = _missing(report, REPORT_KEYS, where)
    if problems:
        return problems
    if report["total_logical_qubits"] != report["app_qubits"] + report["distillation_qubits"]:
        problems.append(f"{where}: total logical qubits are not application plus distillation")
    if report["throttle_factor"] < 1:
        problems.append(f"{where}: throttle factor below 1")
    return problems


def check_shor(text: str, expect: dict) -> list[str]:
    report, problems = _json_report(text)
    if report is None:
        return problems
    problems += _check_budget(report, "shor report")
    if problems:
        return problems
    if expect["machine"] is not None and report["total_logical_qubits"] != expect["machine"]:
        problems.append(
            f"fixed machine of {expect['machine']} qubits reported as {report['total_logical_qubits']}"
        )
    return problems


def check_sim(text: str, expect: dict) -> list[str]:
    report, problems = _json_report(text)
    if report is None:
        return problems
    return problems + _check_budget(report, "sim report")


def check_shor_sweep(text: str, expect: dict) -> list[str]:
    """Pinned header, finite values, and the paper's factory cross-sections."""
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_CSV_HEADER:
        return [f"header is {lines[0] if lines else ''!r}, expected {SWEEP_CSV_HEADER!r}"]
    rows = list(csv.DictReader(io.StringIO(text)))
    if [row["N"] for row in rows] != [str(b) for b in expect["bits"]]:
        return [f"sweep rows are for N = {[row['N'] for row in rows]}, expected {expect['bits']}"]
    problems = []
    for row in rows:
        try:
            values = {k: float(v) for k, v in row.items() if k != "N"}
        except (TypeError, ValueError):
            problems.append(f"N={row['N']}: malformed row {row}")
            continue
        problems += [f"N={row['N']}: {k} is {v}" for k, v in values.items() if not math.isfinite(v)]
        bits = int(row["N"])
        if values["distillation_qubits"] != expect["machine"] - 6 * bits:
            problems.append(f"N={bits}: factory of {values['distillation_qubits']} qubits")
        anchor = PAPER_SWEEP_RATES.get(bits)
        if anchor is not None and expect["machine"] == 100_000:
            for key, want in zip(("production_rate", "consumption_rate"), anchor):
                if abs(values[key] - want) > PAPER_RATE_TOLERANCE:
                    problems.append(f"N={bits}: {key} {values[key]:.3f}, paper table {want}")
    return problems


def check_output(command, text: str) -> list[str]:
    """Problems with one command's stdout; empty when it is correct."""
    if command.check == "pulse_rows":
        return check_pulse_rows(command.kind, text, command.expect["points"])
    if command.check == "frame":
        return check_frame(text, command.expect)
    if command.check == "qec_target":
        return check_qec_target(text, command.expect)
    if command.check == "qec_distance":
        return check_qec_distance(text, command.expect)
    if command.check == "shor":
        return check_shor(text, command.expect)
    if command.check == "shor_sweep":
        return check_shor_sweep(text, command.expect)
    if command.check == "sim":
        return check_sim(text, command.expect)
    raise ValueError(f"unknown check {command.check!r}")
